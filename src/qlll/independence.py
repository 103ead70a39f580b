"""Independence of events relative to a fixed test, and dependence profiles.

Independence here is an equality of conditional probabilities up to
``tol.ind``.  Negative independence conditions on the complements of the
prefix events; it is what the local-lemma bounds consume, via the summary
statistics ``s_i`` (longest fully negatively-independent prefix) and
``d_min`` (smallest dependence radius).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConditionOnZeroError, ValidationError
from .linalg import DEFAULT_TOL, ToleranceConfig, trace
from .probability import (
    TestEventAssignment,
    _clamp_probability,
    _ordered,
    _ratio,
    _test_cond,
    check_index_set,
    pr_test_cond,
    pr_test_marginal,
)


def _decide(lhs: float, rhs: float, tol: ToleranceConfig) -> tuple[float, bool]:
    difference = abs(lhs - rhs)
    return difference, difference <= tol.ind


def _difference(
    a: TestEventAssignment, i: int, K: Iterable[int], J: Iterable[int] | None, tol: ToleranceConfig
) -> tuple[float, bool]:
    """``|Pr[E_i | E_K] - Pr[E_i | E_{K-J}]|`` and whether it is within ``tol.ind``."""
    K, (i,) = _ordered(K, (i,), a.n)
    J = K if J is None else check_index_set(J, a.n)
    if not set(J) <= set(K):
        raise ValidationError(f"J {list(J)} must be a subset of K {list(K)}")
    rest = tuple(j for j in K if j not in set(J))
    return _decide(pr_test_cond(a, K, (i,), tol), pr_test_cond(a, rest, (i,), tol), tol)


def _neg_difference(
    a: TestEventAssignment, i: int, K: Iterable[int], tol: ToleranceConfig
) -> tuple[float, bool]:
    """``|Pr[E_i | not-E_K] - Pr[E_i]|`` and whether it is within ``tol.ind``."""
    K, (i,) = _ordered(K, (i,), a.n)
    conditional = _test_cond(a, K, (i,), True, tol)
    return _decide(conditional, pr_test_marginal(a, (i,), tol), tol)


def is_independent(
    a: TestEventAssignment,
    i: int,
    K: Iterable[int],
    J: Iterable[int] | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Is the event at slot *i* independent of those at *J*, relative to those at ``K - J``?

    Compares Pr[E_i | E_K] with Pr[E_i | E_{K-J}] at ``tol.ind``.  *J*
    defaults to all of *K*, a comparison against the unconditional marginal.
    Raises ``ConditionOnZeroError`` when either conditioning probability is
    numerically zero; the answer is then undefined, not false.
    """
    return _difference(a, i, K, J, tol)[1]


def is_neg_independent(
    a: TestEventAssignment, i: int, K: Iterable[int], tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Is Pr[E_i | not-E_K] equal to Pr[E_i] at ``tol.ind``?

    The conditioning events are the complements of the assigned events at
    *K*; the target event is not complemented.
    """
    return _neg_difference(a, i, K, tol)[1]


class _PrefixWalk:
    """The forward walk of a test: slots 1, 2, ... settled in order, each prefix state walked once.

    ``states[l]`` is ``[w, raw, j]``: sigma_l is rho through the miss channels of slots
    1..l (sigma_0 = rho), ``raw = tr(sigma_l)`` read as miss_l's effect, and ``w`` is
    sigma_l carried on through the test's complete channels of slots l+1..j.  Pair
    (i, l) reads sigma_l carried to slot i only when read, slot i's marginal the test's
    tau_{i-1}; each reads the effect of event i's hit channel, so a candidate at slot i
    applies no channel.  The miss channels are the settled events' own.
    """

    def __init__(self, a: TestEventAssignment):
        rho = a.test._tau[0]
        self.states = [[rho, trace(rho).real, 0]]

    def _hit_trace(self, a: TestEventAssignment, l: int, tol: ToleranceConfig) -> float:
        """Clamped ``tr(hit_i(sigma_l))`` at the first unsettled slot i, sigma_l carried to slot i."""
        i = len(self.states)
        hit = a.event(i)._hit  # an unassigned slot raises MissingAssignmentError
        if l == 0:
            w = a.test._tau[i - 1]
        else:
            w, raw, j = self.states[l]
            for complete in a.test._complete[j:i - 1]:
                w = complete(w)
            self.states[l] = [w, raw, i - 1]
        return _clamp_probability(hit.trace_of(w), tol)

    def marginal(self, a: TestEventAssignment, tol: ToleranceConfig) -> float:
        """Pr[E_i] of the first unsettled slot i."""
        return self._hit_trace(a, 0, tol)

    def conditional(self, a: TestEventAssignment, l: int, tol: ToleranceConfig) -> float | None:
        """Pr[E_i | not-E_1..not-E_l] at the first unsettled slot i > l; None at probability <= tol.prob."""
        denom = _clamp_probability(self.states[l][1], tol)
        if denom <= tol.prob:
            return None
        return _ratio(self._hit_trace(a, l, tol), denom, tol)

    def row(self, a: TestEventAssignment, tol: ToleranceConfig) -> tuple[float, int]:
        """Marginal and ``compute_profile(a, tol).s[i - 1]`` of the first unsettled slot i."""
        # a drop replaces only slot i's event: the test and the settled events, whose
        # channels walked every state held here, are the same objects, so the states stay valid
        marginal = self.marginal(a, tol)
        for l in range(1, len(self.states)):
            conditional = self.conditional(a, l, tol)
            if conditional is None or not _decide(conditional, marginal, tol)[1]:
                return marginal, l - 1
        return marginal, len(self.states) - 1

    def advance(self, a: TestEventAssignment) -> None:
        """Settle the first unsettled slot i with its event in *a*: sigma_i = miss_i(sigma_{i-1})."""
        i = len(self.states)
        sigma, miss = self.states[-1][0], a.event(i)._miss
        self.states.append([miss(sigma), miss.trace_of(sigma), i])

    def avoided(self, tol: ToleranceConfig) -> float:
        """Pr[none of the settled slots' events occurs]."""
        return _clamp_probability(self.states[-1][1], tol)


@dataclass(frozen=True)
class DependenceProfile:
    """Full negative-independence structure of an assignment.

    ``table[(k, l)]`` is True/False for decided pairs and None where some
    conditioning prefix had numerically zero probability (undefined).  For
    ``s`` and ``d_min`` an undefined pair counts as dependent; that is the
    conservative direction for the local-lemma bounds.  The checks read
    ``marginals`` (Pr[E_i]), ``lemma`` (Pr[E_i | none of E_1..E_{i-1}], None
    on a zero prefix), ``avoided`` (Pr[no event]) and the ``assignment`` and
    ``tol`` the profile was built from; ``to_json`` omits them.
    """

    s: tuple[int, ...]
    table: dict[tuple[int, int], bool | None]
    d_min: int
    marginals: tuple[float, ...]
    lemma: tuple[float | None, ...]
    avoided: float
    assignment: TestEventAssignment = field(repr=False, compare=False)
    tol: ToleranceConfig = field(repr=False, compare=False)

    def to_json(self) -> dict:
        rows = []
        for (k, l), value in sorted(self.table.items()):
            rows.append([k, l, "undefined" if value is None else value])
        return {"s": list(self.s), "d_min": self.d_min, "nind_table": rows}


def compute_profile(a: TestEventAssignment, tol: ToleranceConfig = DEFAULT_TOL) -> DependenceProfile:
    """Evaluate every negative-independence pair and summarize it.

    Cost is one pair of probability queries per (target, prefix) pair.  Each
    target folds its prefixes in order (any False wins, then any undefined,
    else True), so ``table[(k, l)]`` covers every prefix of length <= l and
    the table is antitone in l by construction.  One pass over the slots k reads
    ``_PrefixWalk``'s marginal and lemma value at k, decides row k and advances
    the walk; it needs an event at every slot, n = 1 too.
    """
    n = a.n
    table: dict[tuple[int, int], bool | None] = {}
    s = [0] * n
    walk, marginals, lemma = _PrefixWalk(a), [], []
    for k in range(1, n + 1):
        marginals.append(walk.marginal(a, tol))
        lemma.append(walk.conditional(a, k - 1, tol))
        state: bool | None = True
        for l in range(1, k):
            try:
                vote = is_neg_independent(a, k, range(1, l + 1), tol)
            except ConditionOnZeroError:
                vote = None
            if vote is False or (vote is None and state is True):
                state = vote
            table[(k, l)] = state
            if state is True:
                s[k - 1] = l
        walk.advance(a)
    # each target's True entries are exactly l = 1..s_k, so its largest
    # dependent k - l sits at l = s_k + 1
    d_min = max(k - 1 - s[k - 1] for k in range(1, n + 1))
    return DependenceProfile(tuple(s), table, d_min, tuple(marginals), tuple(lemma), walk.avoided(tol), a, tol)
