"""Measurements, events over their outcomes, and event super-operators.

An event pairs a measurement with a subset A of its outcome labels ("the
outcome lies in A").  Its super-operator maps a state rho to
``sum_{m in A} M_m rho M_m^dagger``; this is trace non-increasing and
generally changes the state even when A is the whole spectrum.  When every
operator of a measurement is exactly ``I_l (x) k (x) I_r``, its channels act
on the middle factor only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DifferentMeasurementsError,
    DimensionMismatchError,
    NotCompleteError,
    ParseError,
    ValidationError,
    _shown,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, check_dimension


@dataclass(frozen=True, eq=False, repr=False)
class Measurement:
    """A finite-outcome quantum measurement given by its operator family.

    Parameters
    ----------
    name : str
        Display name; event syntax addresses measurements by position in a
        test, so the name carries no semantics.
    kraus : mapping or iterable of (label, matrix)
        Outcome label -> measurement operator.  Iteration order defines the
        spectrum order.  The measurement builds its complete channel, whose
        effect ``sum_m M_m^dagger M_m`` must be ``I`` within ``tol.complete``
        in max-norm; violating it is a construction error because every
        downstream probability assumes it.
    tol : ToleranceConfig

    Attributes
    ----------
    kraus : mapping of str to ndarray
        Outcome label -> frozen operator, read-only, in spectrum order.
    dim : int
        Side of every operator.
    _window : tuple of int
        The largest ``(l, r)`` such that every operator is exactly
        ``I_l (x) k (x) I_r``; ``(1, 1)`` when no identity factor splits off.
    _products : mapping of str to ndarray
        Outcome label -> ``M_m^dagger M_m``, read-only, formed once here; every
        channel's effect sums those of its outcomes.
    _excess : float
        The largest absolute row sum of ``sum_m M_m^dagger M_m - I``, which
        bounds how far one complete channel can move a trace; a `Test` sums
        it over its slots.
    spectrum : tuple of str
        Outcome labels in declaration order.
    projective : bool
        True when every operator is a Hermitian idempotent and the family is
        pairwise orthogonal (decided when read, within the construction
        tolerance's ``tol.herm``).
    """

    name: str
    kraus: Mapping[str, np.ndarray]
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        name, kraus = self.name, self.kraus
        if isinstance(kraus, Mapping):
            items = list(kraus.items())
        else:
            items = list(kraus)
        if not items:
            raise ValidationError("a measurement needs at least one outcome")
        labels = []
        ops = []
        for label, op in items:
            label = str(label)
            if not label:
                raise ValidationError("outcome labels must be non-empty strings")
            labels.append(label)
            ops.append(as_matrix(op))
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate outcome labels in measurement {name!r}")
        dim = ops[0].shape[0]
        for op in ops[1:]:
            if op.shape[0] != dim:
                raise DimensionMismatchError(
                    f"measurement {name!r} mixes operator dimensions "
                    f"{dim} and {op.shape[0]}"
                )
        check_dimension(dim)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "kraus", MappingProxyType(dict(zip(labels, ops))))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "spectrum", tuple(labels))
        object.__setattr__(self, "_window", _identity_factors(ops, dim))
        # entries near the float limit overflow in the products and the effect;
        # the residual is then inf or nan, which the check below rejects
        # without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            products = [op.conj().T @ op for op in ops]
            for product in products:
                product.setflags(write=False)
            object.__setattr__(self, "_products", MappingProxyType(dict(zip(labels, products))))
            object.__setattr__(self, "_complete", super_operator_of(complete_event(self)))
            deviation = np.abs(self._complete._effect - np.eye(dim))
            residual = float(deviation.max())
            # the largest absolute row sum bounds the Hermitian deviation's operator norm
            object.__setattr__(self, "_excess", float(deviation.sum(axis=1).max()))
        if not residual <= self.tol.complete:
            raise NotCompleteError(
                f"measurement {name!r} violates completeness: "
                f"max residual {residual:.3e} > {self.tol.complete:.1e}",
                residual=residual,
            )

    @property
    def projective(self) -> bool:
        # no library path reads it, so it is decided when read, at the construction tolerance
        return self._detect_projective(list(self.kraus.values()), self.tol)

    @staticmethod
    def _detect_projective(ops, tol: ToleranceConfig) -> bool:
        for op in ops:
            if np.abs(op - op.conj().T).max() > tol.herm:
                return False
            if np.abs(op @ op - op).max() > tol.herm:
                return False
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if np.abs(a @ b).max() > tol.herm:
                    return False
        return True

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Measurement):
            return NotImplemented
        return (
            self.name == other.name
            and self.spectrum == other.spectrum
            and all(
                np.array_equal(self.kraus[m], other.kraus[m]) for m in self.spectrum
            )
        )

    def __hash__(self) -> int:
        return hash((self.name, self.spectrum, self.dim))

    def __repr__(self) -> str:
        tag = "projective" if self.projective else "general"
        return f"Measurement({self.name!r}, dim={self.dim}, outcomes={list(self.spectrum)}, {tag})"


@dataclass(frozen=True)
class Event:
    """Outcome of ``measurement`` lies in ``outcomes``.

    ``outcomes`` may be any iterable of labels.  It is stored as a frozenset
    of strings, so equality is canonical regardless of declaration order.
    """

    measurement: Measurement
    outcomes: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.measurement, Measurement):
            raise ValidationError(f"an event needs a Measurement, got {self.measurement!r}")
        object.__setattr__(self, "outcomes", frozenset(str(o) for o in self.outcomes))
        stray = self.outcomes - set(self.measurement.spectrum)
        if stray:
            raise ValidationError(
                f"outcomes {sorted(stray)} are not in the spectrum of "
                f"measurement {self.measurement.name!r}"
            )

    def sorted_outcomes(self) -> list[str]:
        return [m for m in self.measurement.spectrum if m in self.outcomes]

    @cached_property
    def _hit(self) -> SuperOperator:  # built when first read, shared by all that hold the event
        return super_operator_of(self)

    @cached_property
    def _miss(self) -> SuperOperator:  # the complement's channel
        return super_operator_of(complement(self))

    def __repr__(self) -> str:
        return f"Event({self.measurement.name} in {self.sorted_outcomes()})"


def complete_event(measurement: Measurement) -> Event:
    return Event(measurement, measurement.spectrum)


def empty_event(measurement: Measurement) -> Event:
    return Event(measurement, ())


def complement(event: Event) -> Event:
    """Event on the same measurement selecting the rest of the spectrum."""
    return Event(event.measurement, set(event.measurement.spectrum) - event.outcomes)


def union(a: Event, b: Event) -> Event:
    if a.measurement != b.measurement:
        raise DifferentMeasurementsError(
            "union requires events of the same measurement, got "
            f"{a.measurement.name!r} and {b.measurement.name!r}"
        )
    return Event(a.measurement, a.outcomes | b.outcomes)


def _peel(k: np.ndarray, p: int, left: bool) -> np.ndarray | None:
    """``b`` such that every operator in the stack *k* is ``I_p (x) b`` (*left*) or ``b (x) I_p``, else None."""
    n, m = k.shape[:2]
    q = m // p
    if left:
        blocks = k.reshape(n, p, q, p, q).transpose(0, 1, 3, 2, 4)
    else:
        blocks = k.reshape(n, q, p, q, p).transpose(0, 2, 4, 1, 3)
    # blocks[:, a, b] is the (a, b) block; with zeros off the diagonal in the
    # first block row and column, and each block equal to the one up and to
    # its left, every block is the first one on the diagonal and zero off it
    if blocks[:, 0, 1:].any() or blocks[:, 1:, 0].any() or not (blocks[:, 1:, 1:] == blocks[:, :-1, :-1]).all():
        return None
    return blocks[:, 0, 0]


def _identity_factors(ops: Sequence[np.ndarray], dim: int) -> tuple[int, int]:
    """The largest ``(l, r)`` such that every operator in *ops* is exactly ``I_l (x) k (x) I_r``.

    One descending scan per side keeps the first `_peel` that succeeds: the
    divisors of *dim* the column-0 bound allows on the left, then those of
    what is left that the row step allows on the right.  Every exact factor
    meets its bound, and exact factors are closed under divisors
    (``I_pq = I_p (x) I_q``) and under lcm, so they are the divisors of the
    largest one, and the first success is that largest factor.
    """
    # column 0 of I_l (x) k (x) I_r is zero outside the rows below dim / l that
    # r divides, so a dense operator stops both scans before any comparison
    rows = {i for op in ops for i in op[:, 0].nonzero()[0].tolist()}
    top, step = max(rows, default=0) + 1, math.gcd(*rows)
    if 2 * top > dim and step == 1:
        return 1, 1
    k, l, r = np.array(ops), 1, 1
    for q in range(dim // top, 1, -1):
        if dim % q == 0 and (block := _peel(k, q, left=True)) is not None:
            k, l = block, q
            break
    m = dim // l
    # k is no multiple of I_m here, or the left scan would have taken it
    for q in range(m - 1, 1, -1):
        if m % q == 0 and step % q == 0 and _peel(k, q, left=False) is not None:
            r = q
            break
    return l, r


@dataclass(frozen=True)
class SuperOperator:
    """Completely positive, trace non-increasing map ``rho -> sum_m K_m rho K_m^dagger``.

    A dense channel applies its ``K_m``, stacked with their adjoints when first
    applied, as one batched product and sums the terms in spectrum order.
    With ``window = (l, r)`` past ``(1, 1)`` every ``K_m`` is ``I_l (x) k_m (x) I_r``,
    and the map applies ``sum_m k_m (x) conj(k_m)``, the natural matrix of the
    middle factor, to the ``w x w`` blocks of rho; the effect stays dense.
    """

    kraus: tuple[np.ndarray, ...]
    dim: int
    products: tuple[np.ndarray, ...]  # K_m^dagger K_m of each K_m, in the same order
    window: tuple[int, int] = (1, 1)

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        l, r = self.window
        if l * r == 1:
            stack, adjoints = self._stacks
            # summed in spectrum order from +0.0 zeros, as a loop over the K_m adds the
            # terms, signs of zero included (np.add.reduce would sum many pairwise)
            return sum(stack @ sigma @ adjoints, np.zeros((self.dim, self.dim), dtype=np.complex128))
        w = self.dim // (l * r)
        # sigma[a, i, b, a', i', b'] -> rows (i, i'), columns (a, b, a', b')
        blocks = sigma.reshape(l, w, r, l, w, r).transpose(1, 4, 0, 2, 3, 5).reshape(w * w, -1)
        out = (self._natural @ blocks).reshape(w, w, l, r, l, r).transpose(2, 0, 3, 4, 1, 5)
        return out.reshape(self.dim, self.dim)

    @cached_property
    def _natural(self) -> np.ndarray:  # sum k (x) conj(k) over the middle factors, built when first read
        l, r = self.window
        w = self.dim // (l * r)
        out = np.zeros((w, w, w, w), dtype=np.complex128)
        for k in self.kraus:
            k = k.reshape(l, w, r, l, w, r)[0, :, 0, 0, :, 0]
            out += k[:, None, :, None] * k.conj()[None, :, None, :]  # [i, i', j, j'] = k[i, j] conj(k[i', j'])
        return out.reshape(w * w, w * w)

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, np.ndarray]:  # the K_m as one (m, d, d) array and their adjoints
        stack = np.array(self.kraus).reshape(-1, self.dim, self.dim)
        adjoints = stack.conj().transpose(0, 2, 1)
        stack.setflags(write=False)
        adjoints.setflags(write=False)
        return stack, adjoints

    @cached_property
    def _effect(self) -> np.ndarray:  # the POVM element E = sum K^dagger K, built when first read
        return sum(self.products, np.zeros((self.dim, self.dim), dtype=np.complex128))

    def trace_of(self, sigma: np.ndarray) -> float:
        """``tr(self(sigma)) = tr(E sigma)``, read without applying the channel (E is Hermitian: vdot)."""
        return float(np.vdot(self._effect, sigma).real)


def super_operator_of(event: Event) -> SuperOperator:
    m = event.measurement
    labels = event.sorted_outcomes()
    return SuperOperator(
        kraus=tuple(m.kraus[label] for label in labels),
        dim=m.dim,
        products=tuple(m._products[label] for label in labels),
        window=m._window,
    )


_MARKER_RE = re.compile(r"^\s*(full|empty)\(\s*M(\d+)\s*\)\s*$")
_IN_RE = re.compile(r"^\s*M(\d+)\s+in\s+\{([^{}]*)\}\s*$")
_EQ_RE = re.compile(r"^\s*M(\d+)\s*=\s*(\S+)\s*$")


def _measurement_index(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise ParseError(f"an event expression names a measurement index of {len(digits)} digits") from None


def parse_event_expr(text: str) -> tuple[int, str | frozenset[str]]:
    """Parse one event expression.

    Accepted forms: ``M<i> in {a,b}``, ``M<i>=a``, ``full(M<i>)``,
    ``empty(M<i>)``.  Returns ``(index, spec)`` where spec is the marker
    ``"full"``/``"empty"`` or a frozenset of labels.
    """
    m = _MARKER_RE.match(text)
    if m:
        return _measurement_index(m.group(2)), m.group(1)
    m = _IN_RE.match(text)
    if m:
        body = m.group(2).strip()
        labels = [piece.strip() for piece in body.split(",")] if body else []
        if any(not piece for piece in labels):
            raise ParseError(f"empty outcome label in event expression {text!r}")
        return _measurement_index(m.group(1)), frozenset(labels)
    m = _EQ_RE.match(text)
    if m:
        return _measurement_index(m.group(1)), frozenset([m.group(2)])
    raise ParseError(
        f"cannot parse event expression {text!r}; expected 'M<i> in {{a,b}}', "
        "'M<i>=a', 'full(M<i>)' or 'empty(M<i>)'"
    )


def parse_event_seq(text: str) -> list[tuple[int, str | frozenset[str]]]:
    """Parse a ';'-separated sequence of event expressions."""
    pieces = [piece for piece in text.split(";") if piece.strip()]
    if not pieces:
        raise ParseError("empty event sequence")
    return [parse_event_expr(piece) for piece in pieces]


def resolve_event_spec(measurements: Sequence[Measurement], index: int, spec) -> Event:
    """Turn a parsed ``(index, spec)`` pair into an event of ``measurements[index - 1]``."""
    if not (1 <= index <= len(measurements)):
        raise ParseError(f"event references M{_shown(index)} but the test has {len(measurements)} measurements")
    m = measurements[index - 1]
    if spec == "full":
        return complete_event(m)
    if spec == "empty":
        return empty_event(m)
    stray = set(spec) - set(m.spectrum)
    if stray:
        raise ParseError(
            f"outcomes {sorted(stray)} are not in the spectrum of M{index} "
            f"(labels {list(m.spectrum)})"
        )
    return Event(m, spec)
