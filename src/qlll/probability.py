"""Probabilities of ordered event sequences, in a bare state and in a test.

A sequence probability composes the events' super-operators in the given
order (first listed is performed first) and takes the trace, reading the
last channel as an effect (``SuperOperator.trace_of``).  A test fixes one
measurement per time slot; probabilities "in a test" reference events by
slot and pad unmentioned slots with the complete event of that slot's
measurement, which is what makes marginals and conditionals well defined
here.  Order matters everywhere: conditioning sets must lie strictly before
the events they condition.  Each channel is built once, by what it depends
on: a measurement builds its complete channel, a test only walks ``tau``
through them, and an event builds its hit and miss channels.  Equal routes
apply the same channels and read the same effect, so they give equal floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadOrderingError,
    ConditionOnZeroError,
    DimensionMismatchError,
    InternalConsistencyError,
    MissingAssignmentError,
    NotCompleteError,
    ValidationError,
)
from .events import Event, Measurement, SuperOperator
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
        yield e._hit


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


def _cond(sigma, given, then, tol: ToleranceConfig, subject: str, resume=None, **detail) -> float:
    # One walk: the last *given* channel is read for the denominator, then applied,
    # and the state walks on through *then* for the numerator (the denominator if none).
    # An empty *given* reads tr(sigma), and *then* starts at *resume* when it is given.
    given = list(given)
    sigma = _walk(sigma, given[:-1])
    denom = _clamp_probability(_read(sigma, given[-1:]), tol)
    if denom <= tol.prob:
        raise ConditionOnZeroError(
            f"{subject} probability {denom!r} <= {tol.prob!r}", denominator=denom, **detail
        )
    then = list(then)
    if then and resume is None:
        resume = _walk(sigma, given[-1:])
    num = _clamp_probability(_read(resume, then), tol) if then else denom
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
    """A state plus one measurement per time slot.

    ``_complete`` holds the measurements' own complete channels and ``_tau[j]``
    is rho through those of slots 1..j (j < n); they hold no event, so every
    walk in the test starts at the ``tau`` before its first unpadded slot.
    A test whose ``|tr rho - 1|``, plus the state's negative mass and its
    measurements' summed ``_excess``, exceeds their smallest ``tol.prob`` is
    refused with `NotCompleteError`.
    """

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
        # to first order a probability strays outside [0, 1] by at most this
        # budget, which the probability clamp would report as a library fault;
        # an event can select the whole positive part of rho, of trace tr rho + |negative|
        rho, prob = self.rho.matrix, min(m.tol.prob for m in self.measurements)
        budget = abs(trace(rho).real - 1.0) + abs(self.rho._negative) + sum(m._excess for m in self.measurements)
        if budget > prob:
            raise NotCompleteError(
                f"the test's trace, negative-mass and completeness budget {budget:.3e} "
                f"exceeds tol.prob {prob:.1e}, so its probabilities could stray outside [0,1]",
                budget=budget,
            )
        complete = tuple(m._complete for m in self.measurements)
        object.__setattr__(self, "_complete", complete)
        tau = accumulate(complete[:-1], lambda w, channel: channel(w), initial=rho)
        object.__setattr__(self, "_tau", tuple(tau))

    @property
    def n(self) -> int:
        return len(self.measurements)


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    """*value* as an int from *low* (to *high* if given): numpy integers pass; bools, floats and strings do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValidationError(f"{what} {value!r} is not an integer")
    if high is not None and not (low <= number <= high):
        raise ValidationError(f"{what} {number} outside {low}..{high}")
    if number < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValidationError(f"{what} must be {bound}, got {number}")
    return number


def check_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of 1-based slot indices."""
    # a plain int in range passes without a call: a profile validates O(n^3) indices
    out = tuple(i if type(i) is int and 1 <= i <= n else _integer(i, "index", 1, n) for i in indices)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValidationError(f"index set {list(out)} must be strictly increasing")
    return out


def _ordered(K: Iterable[int], L: Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index sets *K* and *L*, once *K* is known to lie strictly before *L*."""
    K, L = check_index_set(K, n), check_index_set(L, n)
    if K and L and K[-1] >= L[0]:
        raise BadOrderingError(f"conditioning slots {list(K)} must lie strictly before {list(L)}", K=list(K), L=list(L))
    return K, L


@dataclass(frozen=True)
class TestEventAssignment:
    """Events assigned to (some) slots of a test.

    Each assigned event must be defined by the measurement sitting at its
    slot.  An assignment is only its ``test`` and its read-only ``events``,
    which hold every channel its walks read, and compares by their values.
    """

    __test__ = False

    test: Test
    events: Mapping[int, Event]

    def __post_init__(self):
        checked = {self._slot(i, e): e for i, e in self.events.items()}
        object.__setattr__(self, "events", MappingProxyType(dict(sorted(checked.items()))))

    def __hash__(self) -> int:
        return hash(self.test)  # equal assignments have equal tests

    def _slot(self, i: int, e: Event) -> int:
        """Slot *i* as an int, once *e* is known to be an event of the measurement there."""
        i = _integer(i, "assignment index", 1, self.n)
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
        # a plain int is read as is: _padded and _PrefixWalk read every slot this way
        if type(i) is not int:
            i = _integer(i, "assignment index", 1, self.n)
        try:
            return self.events[i]
        except KeyError:
            raise MissingAssignmentError(f"no event assigned at slot {i}") from None

    def with_event(self, i: int, event: Event) -> "TestEventAssignment":
        """A copy with *event* at slot *i*: the same test and every other event."""
        # checked first, so that 2.0 or True cannot stand in for a slot already assigned
        i = _integer(i, "assignment index", 1, self.n)
        return replace(self, events={**self.events, i: event})

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {e!r}" for i, e in self.events.items())
        return f"TestEventAssignment(n={self.n}, {{{body}}})"


def _padded(a: TestEventAssignment, K: tuple[int, ...], miss: bool, start: int) -> list:
    """Channels of slots ``start + 1 .. max(K)``, every slot of *K* past *start*: at *K* each
    event's hit channel (its miss channel if *miss*), the test's complete channel elsewhere."""
    seq = list(a.test._complete[start:K[-1] if K else start])
    for i in K:
        event = a.event(i)
        seq[i - start - 1] = event._miss if miss else event._hit
    return seq


def _test_cond(a: TestEventAssignment, K, L, miss: bool, tol: ToleranceConfig) -> float:
    """Pr[events at *L* | events at *K*], or | their complements if *miss*."""
    # an empty K divides by tr(tau_0) = tr(rho), and its numerator resumes at the tau before min(L)
    start, after = (K[0] - 1, K[-1]) if K else (0, L[0] - 1 if L else 0)
    resume = None if K else a.test._tau[after]
    given, then = _padded(a, K, miss, start), _padded(a, L, False, after)
    subject = f"conditioning events at slots {list(K)} have"
    return _cond(a.test._tau[start], given, then, tol, subject, resume, K=list(K))


def pr_test_marginal(a: TestEventAssignment, K: Iterable[int], tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Marginal probability of the events at slots *K*.

    Slots before ``max(K)`` that are not in *K* are padded with the complete
    event of their measurement: the measurement still happens, its outcome is
    just not inspected.  ``K = ()`` gives ``tr(rho)``, one up to rounding.
    """
    K = check_index_set(K, a.n)
    start = K[0] - 1 if K else 0
    return _clamp_probability(_read(a.test._tau[start], _padded(a, K, False, start)), tol)


def pr_test_cond(
    a: TestEventAssignment,
    K: Iterable[int],
    L: Iterable[int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Conditional probability of the events at *L* given those at *K*.

    Requires ``max(K) < min(L)``.  The padded sequence of ``K + L`` is
    walked once: slot ``max(K)`` gives the conditioning marginal (the
    denominator) partway through, and the walk continues to the numerator.
    An empty *K* divides by ``tr(rho)``, one up to rounding, and its
    numerator is ``pr_test_marginal(a, L)``'s walk from ``tau_{min(L)-1}``.

    Raises
    ------
    BadOrderingError
        If *K* does not lie strictly before *L*.
    ConditionOnZeroError
        If the conditioning marginal is at most ``tol.prob``.
    """
    K, L = _ordered(K, L, a.n)
    return _test_cond(a, K, L, False, tol)
