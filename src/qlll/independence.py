"""Independence of events relative to a fixed test, and dependence profiles.

Independence here is an equality of conditional probabilities up to
``tol.ind``.  Negative independence conditions on the complements of the
prefix events; it is what the local-lemma bounds consume, via the summary
statistics ``s_i`` (longest fully negatively-independent prefix) and
``d_min`` (smallest dependence radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConditionOnZeroError, ValidationError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .probability import TestEventAssignment, _test_cond, check_index_set, pr_test_cond, pr_test_marginal


def _before_target(a: TestEventAssignment, i: int, K: Iterable[int]) -> tuple[int, ...]:
    """Check that *K* is an index set lying strictly before the target slot *i*."""
    K = check_index_set(K, a.n)
    if not (1 <= i <= a.n):
        raise ValidationError(f"target index {i} outside 1..{a.n}")
    if K and K[-1] >= i:
        raise ValidationError(f"conditioning slots {list(K)} must lie strictly before target {i}")
    return K


@dataclass(frozen=True)
class IndependenceQuery:
    """Is the event at slot *i* independent of the events at *J*, relative to those at ``K - J``?"""

    assignment: TestEventAssignment
    i: int
    K: tuple[int, ...]
    J: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "K", _before_target(self.assignment, self.i, self.K))
        object.__setattr__(self, "J", check_index_set(self.J, self.assignment.n))
        if not set(self.J) <= set(self.K):
            raise ValidationError(f"J {list(self.J)} must be a subset of K {list(self.K)}")


def _decide(lhs: float, rhs: float, tol: ToleranceConfig) -> tuple[float, bool]:
    difference = abs(lhs - rhs)
    return difference, difference <= tol.ind


def _difference(query: IndependenceQuery, tol: ToleranceConfig) -> tuple[float, bool]:
    """``|Pr[E_i | E_K] - Pr[E_i | E_{K-J}]|`` and whether it is within ``tol.ind``."""
    a, i = query.assignment, query.i
    rest = tuple(j for j in query.K if j not in set(query.J))
    return _decide(pr_test_cond(a, query.K, (i,), tol), pr_test_cond(a, rest, (i,), tol), tol)


def _neg_difference(
    a: TestEventAssignment, i: int, K: Iterable[int], tol: ToleranceConfig
) -> tuple[float, bool]:
    """``|Pr[E_i | not-E_K] - Pr[E_i]|`` and whether it is within ``tol.ind``."""
    K = _before_target(a, i, K)
    conditional = _test_cond(a, K, (i,), a._miss, tol)
    return _decide(conditional, pr_test_marginal(a, (i,), tol), tol)


def is_independent(query: IndependenceQuery, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Compare Pr[E_i | E_K] with Pr[E_i | E_{K-J}] at ``tol.ind``.

    With ``J == K`` the comparison is against the unconditional marginal.
    Raises ``ConditionOnZeroError`` when either conditioning probability is
    numerically zero; the answer is then undefined, not false.
    """
    return _difference(query, tol)[1]


def is_neg_independent(
    a: TestEventAssignment, i: int, K: Iterable[int], tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Is Pr[E_i | not-E_K] equal to Pr[E_i] at ``tol.ind``?

    The conditioning events are the complements of the assigned events at
    *K*; the target event is not complemented.
    """
    return _neg_difference(a, i, K, tol)[1]


@dataclass(frozen=True)
class DependenceProfile:
    """Full negative-independence structure of an assignment.

    ``table[(k, l)]`` is True/False for decided pairs and None where some
    conditioning prefix had numerically zero probability (undefined).  For
    ``s`` and ``d_min`` an undefined pair counts as dependent; that is the
    conservative direction for the local-lemma bounds.
    """

    n: int
    s: tuple[int, ...]
    table: dict[tuple[int, int], bool | None]
    d_min: int

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
    the table is antitone in l by construction.
    """
    n = a.n
    table: dict[tuple[int, int], bool | None] = {}
    s = [0] * n
    d_min = 0
    for k in range(2, n + 1):
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
            else:
                d_min = max(d_min, k - l)
    return DependenceProfile(n=n, s=tuple(s), table=table, d_min=d_min)
