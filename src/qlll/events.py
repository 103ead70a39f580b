"""Measurements, events over their outcomes, and event super-operators.

An event pairs a measurement with a subset A of its outcome labels ("the
outcome lies in A").  Its super-operator maps a state rho to
``sum_{m in A} M_m rho M_m^dagger``; this is trace non-increasing and
generally changes the state even when A is the whole spectrum.
"""

from __future__ import annotations

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
)
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, check_dimension


class Measurement:
    """A finite-outcome quantum measurement given by its operator family.

    Parameters
    ----------
    name : str
        Display name; event syntax addresses measurements by position in a
        test, so the name carries no semantics.
    kraus : mapping or iterable of (label, matrix)
        Outcome label -> measurement operator.  Iteration order defines the
        spectrum order.  The family must satisfy the completeness relation
        ``sum_m M_m^dagger M_m = I`` within ``tol.complete`` in max-norm;
        violating it is a construction error because every downstream
        probability assumes it.
    tol : ToleranceConfig

    Attributes
    ----------
    name, dim : str, int
        Read-only.
    kraus : mapping of str to ndarray
        Outcome label -> frozen operator, read-only.
    spectrum : tuple of str
        Outcome labels in declaration order, read-only.
    projective : bool
        True when every operator is a Hermitian idempotent and the family is
        pairwise orthogonal (decided when read, within the construction
        tolerance's ``tol.herm``).
    """

    def __init__(self, name: str, kraus, tol: ToleranceConfig = DEFAULT_TOL):
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
        total = np.zeros((dim, dim), dtype=np.complex128)
        # entries near the float limit overflow here; the residual is then
        # inf or nan, which the check below rejects without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for op in ops:
                total += op.conj().T @ op
            residual = float(np.abs(total - np.eye(dim)).max())
        if not residual <= tol.complete:
            raise NotCompleteError(
                f"measurement {name!r} violates completeness: "
                f"max residual {residual:.3e} > {tol.complete:.1e}",
                residual=residual,
            )
        self._name = str(name)
        self._dim = dim
        self._spectrum = tuple(labels)
        self._kraus = MappingProxyType(dict(zip(labels, ops)))
        self._tol = tol

    # read-only: every channel is built from these, after the checks above
    @property
    def name(self) -> str:
        return self._name

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def spectrum(self) -> tuple[str, ...]:
        return self._spectrum

    @property
    def kraus(self) -> Mapping[str, np.ndarray]:
        return self._kraus

    @property
    def projective(self) -> bool:
        # no library path reads it, so it is decided when read, at the construction tolerance
        return self._detect_projective(list(self._kraus.values()), self._tol)

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
        order = {m: i for i, m in enumerate(self.measurement.spectrum)}
        return sorted(self.outcomes, key=order.__getitem__)

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


@dataclass(frozen=True)
class SuperOperator:
    """Completely positive, trace non-increasing map ``rho -> sum_m K_m rho K_m^dagger``."""

    kraus: tuple[np.ndarray, ...]
    dim: int

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for k in self.kraus:
            out += k @ sigma @ k.conj().T
        return out

    @cached_property
    def _effect(self) -> np.ndarray:  # the POVM element E = sum K^dagger K, built when first read
        return sum((k.conj().T @ k for k in self.kraus), np.zeros((self.dim, self.dim), dtype=np.complex128))

    def trace_of(self, sigma: np.ndarray) -> float:
        """``tr(self(sigma)) = tr(E sigma)``, read without applying the channel (E is Hermitian: vdot)."""
        return float(np.vdot(self._effect, sigma).real)


def super_operator_of(event: Event) -> SuperOperator:
    m = event.measurement
    kraus = tuple(m.kraus[label] for label in m.spectrum if label in event.outcomes)
    return SuperOperator(kraus=kraus, dim=m.dim)


_MARKER_RE = re.compile(r"^\s*(full|empty)\(\s*M(\d+)\s*\)\s*$")
_IN_RE = re.compile(r"^\s*M(\d+)\s+in\s+\{([^{}]*)\}\s*$")
_EQ_RE = re.compile(r"^\s*M(\d+)\s*=\s*(\S+)\s*$")


def parse_event_expr(text: str) -> tuple[int, str | frozenset[str]]:
    """Parse one event expression.

    Accepted forms: ``M<i> in {a,b}``, ``M<i>=a``, ``full(M<i>)``,
    ``empty(M<i>)``.  Returns ``(index, spec)`` where spec is the marker
    ``"full"``/``"empty"`` or a frozenset of labels.
    """
    m = _MARKER_RE.match(text)
    if m:
        return int(m.group(2)), m.group(1)
    m = _IN_RE.match(text)
    if m:
        body = m.group(2).strip()
        labels = [piece.strip() for piece in body.split(",")] if body else []
        if any(not piece for piece in labels):
            raise ParseError(f"empty outcome label in event expression {text!r}")
        return int(m.group(1)), frozenset(labels)
    m = _EQ_RE.match(text)
    if m:
        return int(m.group(1)), frozenset([m.group(2)])
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
        raise ParseError(f"event references M{index} but the test has {len(measurements)} measurements")
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
