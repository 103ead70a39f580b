"""Probabilities of ordered event sequences, in a bare state and in a test.

A sequence probability composes the events' super-operators in the given
order (first listed is performed first) and takes the trace, reading the
last channel as an effect (``SuperOperator.trace_of``).  A test fixes one
measurement per time slot; probabilities "in a test" reference events by
slot and pad unmentioned slots with the complete event of that slot's
measurement, which is what makes marginals and conditionals well defined
here.  Order matters everywhere: conditioning sets must lie strictly before
the events they condition.  Equal routes apply the same channels and read
the same effect, so they give equal floats.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadOrderingError,
    ConditionOnZeroError,
    DimensionMismatchError,
    InternalConsistencyError,
    MissingAssignmentError,
    ValidationError,
)
from .events import Event, Measurement, SuperOperator, complement, complete_event, super_operator_of
from .linalg import DEFAULT_TOL, DensityOperator, ToleranceConfig, trace


def _clamp_probability(p: float, tol: ToleranceConfig) -> float:
    if p < -tol.prob or p > 1.0 + tol.prob:
        raise InternalConsistencyError(
            f"computed probability {p!r} strays outside [0,1] beyond tolerance",
            value=p,
        )
    return min(max(p, 0.0), 1.0)


def _ratio(num: float, denom: float, tol: ToleranceConfig) -> float:
    # num <= denom is a theorem; float evaluation from scratch can still push
    # the ratio a hair above 1 when denom is small, so allow an absolute
    # rounding budget before calling it a bug.
    if num > denom + 1e-12 + tol.prob * denom:
        raise InternalConsistencyError(
            f"conditional probability {num!r}/{denom!r} exceeds one beyond rounding",
            numerator=num,
            denominator=denom,
        )
    return min(num / denom, 1.0)


def _channels(rho: DensityOperator, seq: Sequence[Event]):
    """Each event's channel, once its dimension is checked against *rho*."""
    for e in seq:
        if e.measurement.dim != rho.dim:
            raise DimensionMismatchError(
                f"event on measurement {e.measurement.name!r} has dimension "
                f"{e.measurement.dim}, state has {rho.dim}"
            )
        yield super_operator_of(e)


def _walk(sigma, channels: Iterable[SuperOperator]):
    """Apply *channels* to *sigma* in order (first listed first)."""
    for channel in channels:
        sigma = channel(sigma)
    return sigma


def _read(sigma, channels: Sequence[SuperOperator]) -> float:
    """``tr`` of *sigma* through *channels*: all but the last applied, the last read as an effect."""
    if not channels:
        return trace(sigma).real
    return channels[-1].trace_of(_walk(sigma, channels[:-1]))


def pr_state(rho: DensityOperator, seq: Sequence[Event], tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Probability that the events in *seq* occur in order, starting from *rho*.

    The first event in *seq* is performed first.  An empty sequence has
    probability ``trace(rho)``, which is one up to rounding.
    """
    return _clamp_probability(_read(rho.matrix, list(_channels(rho, seq))), tol)


def _cond(sigma, given, then, tol: ToleranceConfig, subject: str, **detail) -> float:
    # One walk: the last *given* channel is read for the denominator, then applied,
    # and the state walks on through *then* for the numerator (the denominator if none).
    given = list(given)
    sigma = _walk(sigma, given[:-1])
    denom = _clamp_probability(_read(sigma, given[-1:]), tol)
    if denom <= tol.prob:
        raise ConditionOnZeroError(
            f"{subject} probability {denom!r} <= {tol.prob!r}", denominator=denom, **detail
        )
    then = list(then)
    num = _clamp_probability(_read(_walk(sigma, given[-1:]), then), tol) if then else denom
    return _ratio(num, denom, tol)


def pr_state_cond(
    rho: DensityOperator,
    given: Sequence[Event],
    then: Sequence[Event],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Probability of *then* happening after *given*, conditioned on *given*.

    The state is walked once: the denominator is read at the last *given*
    channel, and the same state continues through *then* for the numerator.

    Raises
    ------
    ConditionOnZeroError
        If ``pr_state(rho, given)`` is at most ``tol.prob``.
    """
    subject = "conditioning sequence has"
    return _cond(rho.matrix, _channels(rho, given), _channels(rho, then), tol, subject)


@dataclass(frozen=True)
class Test:
    """A state plus one measurement per time slot."""

    __test__ = False  # keep pytest from collecting the library class

    rho: DensityOperator
    measurements: tuple[Measurement, ...]

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if not self.measurements:
            raise ValidationError("a test needs at least one measurement")
        for m in self.measurements:
            if m.dim != self.rho.dim:
                raise DimensionMismatchError(
                    f"measurement {m.name!r} has dimension {m.dim}, "
                    f"test state has {self.rho.dim}"
                )

    @property
    def n(self) -> int:
        return len(self.measurements)


def check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of 1-based slot indices."""
    out = tuple(int(i) for i in indices)
    for i in out:
        if not (1 <= i <= n):
            raise ValidationError(f"index {i} outside 1..{n}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValidationError(f"index set {list(out)} must be strictly increasing")
    return out


class TestEventAssignment:
    """Events assigned to (some) slots of a test.

    Each assigned event must be defined by the measurement sitting at its
    slot.  ``events`` is read-only so that the channel table cannot go stale.
    ``_tau[j]``, rho through the complete channels of slots 1..j, holds no event: each
    is walked once, when first read, into a list every ``with_event`` copy shares (up to
    n d^2 complex entries, like one ``_PrefixWalk``).  Each walk starts at the ``tau``
    before its first unpadded slot and reads its last channel as an effect.
    """

    __test__ = False

    def __init__(self, test: Test, events: Mapping[int, Event]):
        self.test = test
        checked = {self._slot(i, e): e for i, e in events.items()}
        self.events = MappingProxyType(dict(sorted(checked.items())))
        # Each test-relative walk applies, per slot, its complete channel or the
        # hit or miss channel of its event; all share the measurements' arrays.
        self._complete = tuple(super_operator_of(complete_event(m)) for m in self.test.measurements)
        self._hit = {i: super_operator_of(e) for i, e in self.events.items()}
        self._miss = {i: super_operator_of(complement(e)) for i, e in self.events.items()}
        self._tau = [test.rho.matrix] + [None] * (self.n - 1)

    def _tau_at(self, j: int):
        """``tau_j``, walked on from the last one built; a rebuild (another thread's) writes equal bits."""
        tau, k = self._tau, j
        while tau[k] is None:
            k -= 1
        for k in range(k, j):
            tau[k + 1] = self._complete[k](tau[k])
        return tau[j]

    def _slot(self, i: int, e: Event) -> int:
        """Slot *i* as an int, once *e* is known to be an event of the measurement there."""
        i = int(i)
        if not (1 <= i <= self.n):
            raise ValidationError(f"assignment index {i} outside 1..{self.n}")
        if e.measurement != self.test.measurements[i - 1]:
            raise ValidationError(
                f"event at slot {i} is defined by measurement "
                f"{e.measurement.name!r}, expected {self.test.measurements[i - 1].name!r}"
            )
        return i

    @property
    def n(self) -> int:
        return self.test.n

    def assigned(self) -> tuple[int, ...]:
        return tuple(self.events)

    def event(self, i: int) -> Event:
        try:
            return self.events[i]
        except KeyError:
            raise MissingAssignmentError(f"no event assigned at slot {i}") from None

    def with_event(self, i: int, event: Event) -> "TestEventAssignment":
        """A copy with *event* at slot *i*; it shares every other slot's channels with this one."""
        i = self._slot(i, event)
        new = copy.copy(self)
        new.events = MappingProxyType(dict(sorted({**self.events, i: event}.items())))
        new._hit = {**self._hit, i: super_operator_of(event)}
        new._miss = {**self._miss, i: super_operator_of(complement(event))}
        return new

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {e!r}" for i, e in self.events.items())
        return f"TestEventAssignment(n={self.n}, {{{body}}})"


def _padded(a: TestEventAssignment, K: tuple[int, ...], table: Mapping, start: int = 0) -> list:
    """Channels of slots ``start + 1 .. max(K)``: ``table[i]`` at *K*, the complete channel elsewhere."""
    chosen = set(K)
    seq = []
    for i in range(start + 1, (K[-1] if K else start) + 1):
        if i not in chosen:
            seq.append(a._complete[i - 1])
        elif i in table:
            seq.append(table[i])
        else:
            raise MissingAssignmentError(f"no event assigned at slot {i}")
    return seq


def _test_cond(a: TestEventAssignment, K, L, table: Mapping, tol: ToleranceConfig) -> float:
    """Pr[events at *L* | *table*'s channels at *K*]: ``a._miss`` conditions on the complements."""
    start = K[0] - 1 if K else 0  # an empty K divides by tr(tau_0) = tr(rho)
    given = _padded(a, K, table, start)
    then = _padded(a, L, a._hit, start + len(given))
    subject = f"conditioning events at slots {list(K)} have"
    return _cond(a._tau_at(start), given, then, tol, subject, K=list(K))


def pr_test_marginal(a: TestEventAssignment, K: Iterable[int], tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Marginal probability of the events at slots *K*.

    Slots before ``max(K)`` that are not in *K* are padded with the complete
    event of their measurement: the measurement still happens, its outcome is
    just not inspected.  ``K = ()`` gives ``tr(rho)``, one up to rounding.
    """
    K = check_index_set(K, a.n)
    start = K[0] - 1 if K else 0
    return _clamp_probability(_read(a._tau_at(start), _padded(a, K, a._hit, start)), tol)


def pr_test_cond(
    a: TestEventAssignment,
    K: Iterable[int],
    L: Iterable[int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Conditional probability of the events at *L* given those at *K*.

    Requires ``max(K) < min(L)``; an empty *K* has denominator ``tr(rho)``,
    one up to rounding.  The padded sequence of ``K + L`` is walked once:
    slot ``max(K)`` gives the conditioning marginal (the denominator)
    partway through, and the walk continues to the numerator.

    Raises
    ------
    BadOrderingError
        If *K* does not lie strictly before *L*.
    ConditionOnZeroError
        If the conditioning marginal is at most ``tol.prob``.
    """
    K = check_index_set(K, a.n)
    L = check_index_set(L, a.n)
    if K and L and K[-1] >= L[0]:
        raise BadOrderingError(
            f"conditioning slots {list(K)} must lie strictly before {list(L)}",
            K=list(K),
            L=list(L),
        )
    return _test_cond(a, K, L, a._hit, tol)
