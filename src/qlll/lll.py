"""Local-lemma bound checking for event sequences in a test.

Two variants are checked mechanically on concrete instances.  The general
form takes weights x_i in (0, 1] and verifies, for the measured dependence
profile, that Pr[E_i] <= x_i * prod_{j=s_i+1..i-1} (1 - x_j) for every i;
when that hypothesis holds, the probability that no event occurs is at least
prod_i (1 - x_i) and every conditional Pr[E_i | none of E_1..E_{i-1}] is at
most x_i.  The symmetric form takes a single probability bound p and uses
the measured minimal dependence radius d: p * e * (d + 1) <= 1 forces the
all-complements probability to be strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import BadPError, ValidationError
from .independence import DependenceProfile, _PrefixWalk, compute_profile
from .linalg import DEFAULT_TOL, ToleranceConfig
from .probability import TestEventAssignment


@dataclass(frozen=True)
class LLLInstance:
    """An event assignment plus the weight vector the bound is checked against."""

    assignment: TestEventAssignment
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        n = self.assignment.n
        if len(self.x) != n:
            raise ValidationError(f"need one weight per slot: got {len(self.x)}, test has {n}")
        for i, v in enumerate(self.x, start=1):
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"weight x_{i} must lie in (0, 1], got {v!r}")
        missing = [i for i in range(1, n + 1) if i not in self.assignment.events]
        if missing:
            raise ValidationError(f"local-lemma checks need an event at every slot; missing {missing}")


def _avoidance_pass(a: TestEventAssignment, tol: ToleranceConfig) -> tuple[list, list, float]:
    """Marginals, lemma column Pr[E_i | none of E_1..E_{i-1}] and Pr[all avoided] from one walk."""
    walk = _PrefixWalk(a)
    marginals, lemma = [], []
    for i in range(1, a.n + 1):
        marginals.append(walk.marginal(a, tol))
        lemma.append(walk.conditional(a, i - 1, tol))
        walk.advance(a)
    return marginals, lemma, walk.avoided(tol)


@dataclass(frozen=True)
class SymmetricReport:
    p: float
    d_min: int
    condition_value: float
    condition: str  # "satisfied" | "boundary" | "violated"
    lhs: float
    explicit_bound: float
    positivity_ok: bool | None
    verdict: str  # "pass" | "inconclusive" | "boundary" | "not-applicable"
    p_max: float
    chain_ok: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LLLReport:
    assumption_ok: tuple[bool, ...]
    assumption_rows: tuple[dict, ...]
    lemma_bounds: tuple[tuple[float | None, float], ...]
    lhs: float
    rhs: float
    bound_ok: bool
    profile: DependenceProfile
    tol: ToleranceConfig = DEFAULT_TOL  # the tolerances the check ran with

    def to_json(self) -> dict:
        return {
            "assumption_ok": list(self.assumption_ok),
            "assumption": [dict(r) for r in self.assumption_rows],
            "lemma_bounds": [
                {"value": v, "x": x, "ok": None if v is None else v <= x + self.tol.prob}
                for v, x in self.lemma_bounds
            ],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "bound_ok": self.bound_ok,
            "s": list(self.profile.s),
            "d_min": self.profile.d_min,
            "symmetric": None,  # CHECK_SCHEMA keeps the key; a general check fills no symmetric part
        }


def symmetric_chain_holds(d: int) -> bool:
    """Scalar fact behind the symmetric reduction: 1/((d+1)e) <= (1/(d+1)) (1 - 1/(d+1))^d.

    ``(1 - 1/(d+1))^d`` is 1 at d = 0 (empty product).  The comparison
    allows 1e-12 of rounding slack.
    """
    x = 1.0 / (d + 1)
    return 1.0 / ((d + 1) * math.e) <= x * (1.0 - x) ** d + 1e-12


def _assumption_row(i: int, marginal: float, s_i: int, x: tuple[float, ...], tol: ToleranceConfig) -> dict:
    """Hypothesis row i: Pr[E_i] <= x_i * prod_{j=s_i+1..i-1} (1 - x_j), within ``tol.prob``."""
    bound = x[i - 1]
    for j in range(s_i + 1, i):
        bound *= 1.0 - x[j - 1]
    return {"i": i, "marginal": marginal, "bound": bound, "ok": marginal <= bound + tol.prob}


def check_general(inst: LLLInstance, tol: ToleranceConfig = DEFAULT_TOL) -> LLLReport:
    """Evaluate hypothesis, per-slot conditionals and the product bound.

    Always computes and reports everything; ``assumption_ok`` tells the
    caller whether the bound was owed in the first place.
    """
    a = inst.assignment
    profile = compute_profile(a, tol)
    marginals, lemma, lhs = _avoidance_pass(a, tol)
    rows = [_assumption_row(i, m, profile.s[i - 1], inst.x, tol) for i, m in enumerate(marginals, start=1)]
    rhs = 1.0
    for v in inst.x:
        rhs *= 1.0 - v
    return LLLReport(
        assumption_ok=tuple(r["ok"] for r in rows),
        assumption_rows=tuple(rows),
        lemma_bounds=tuple(zip(lemma, inst.x)),
        lhs=lhs,
        rhs=rhs,
        bound_ok=lhs >= rhs - tol.prob,
        profile=profile,
        tol=tol,
    )


def check_symmetric(
    a: TestEventAssignment,
    p: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    profile: DependenceProfile | None = None,
) -> SymmetricReport:
    """Evaluate the symmetric condition p * e * (d_min + 1) <= 1.

    *p* defaults to the largest measured single-event marginal; a *p*
    outside [0, 1] or below that maximum raises ``BadPError``.  The
    condition is decided with ``tol.prob`` slack on both sides; values
    within the slack of 1 are reported "boundary".  A positivity verdict of
    "pass" needs the all-complements probability to exceed ``tol.prob``;
    smaller values are "inconclusive" rather than a claim either way.
    """
    marginals, _, lhs = _avoidance_pass(a, tol)
    p_max = max(marginals)
    if p is None:
        p = p_max
    p = float(p)
    if not (0.0 <= p <= 1.0):  # NaN and infinities fail it too
        raise BadPError(f"supplied p={p!r} is not a finite probability in [0, 1]")
    if p < p_max - tol.prob:
        raise BadPError(
            f"supplied p={p!r} is below the measured maximum marginal {p_max!r}",
            p=p,
            p_max=p_max,
        )
    if profile is None:
        profile = compute_profile(a, tol)
    d = profile.d_min
    value = p * math.e * (d + 1)
    if abs(value - 1.0) <= tol.prob:
        condition = "boundary"
    elif value < 1.0:
        condition = "satisfied"
    else:
        condition = "violated"

    x = 1.0 / (d + 1)
    explicit_bound = (1.0 - x) ** a.n
    chain_ok = symmetric_chain_holds(d) and (
        condition == "violated" or p <= 1.0 / ((d + 1) * math.e) + tol.prob
    )

    if condition == "violated":
        positivity_ok = None
        verdict = "not-applicable"
    else:
        positivity_ok = lhs > tol.prob
        if condition == "boundary":
            verdict = "boundary"
        else:
            verdict = "pass" if positivity_ok else "inconclusive"

    return SymmetricReport(
        p=p,
        d_min=d,
        condition_value=value,
        condition=condition,
        lhs=lhs,
        explicit_bound=explicit_bound,
        positivity_ok=positivity_ok,
        verdict=verdict,
        p_max=p_max,
        chain_ok=chain_ok,
    )
