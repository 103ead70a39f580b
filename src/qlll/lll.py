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
from .independence import DependenceProfile, compute_profile
from .linalg import DEFAULT_TOL, ToleranceConfig, _real
from .probability import TestEventAssignment


@dataclass(frozen=True)
class LLLInstance:
    """An event assignment plus the weight vector the bound is checked against."""

    assignment: TestEventAssignment
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(_real(v, f"weight x_{i}") for i, v in enumerate(self.x, start=1)))
        n = self.assignment.n
        if len(self.x) != n:
            raise ValidationError(f"need one weight per slot: got {len(self.x)}, test has {n}")
        for i, v in enumerate(self.x, start=1):
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"weight x_{i} must lie in (0, 1], got {v!r}")
        missing = [i for i in range(1, n + 1) if i not in self.assignment.events]
        if missing:
            raise ValidationError(f"local-lemma checks need an event at every slot; missing {missing}")


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
    profile: DependenceProfile  # its ``tol`` holds the tolerances the check ran with

    def to_json(self) -> dict:
        return {
            "assumption_ok": list(self.assumption_ok),
            "assumption": [dict(r) for r in self.assumption_rows],
            "lemma_bounds": [
                {"value": v, "x": x, "ok": None if v is None else v <= x + self.profile.tol.prob}
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

    Always computes and reports everything, all read from ``compute_profile``;
    ``assumption_ok`` tells the caller whether the bound was owed at all.
    """
    profile = compute_profile(inst.assignment, tol)
    rows = [_assumption_row(i, m, profile.s[i - 1], inst.x, tol) for i, m in enumerate(profile.marginals, start=1)]
    rhs = 1.0
    for v in inst.x:
        rhs *= 1.0 - v
    return LLLReport(
        assumption_ok=tuple(r["ok"] for r in rows),
        assumption_rows=tuple(rows),
        lemma_bounds=tuple(zip(profile.lemma, inst.x)),
        lhs=profile.avoided,
        rhs=rhs,
        bound_ok=profile.avoided >= rhs - tol.prob,
        profile=profile,
    )


def check_symmetric(
    a: TestEventAssignment,
    p: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    profile: DependenceProfile | None = None,
) -> SymmetricReport:
    """Evaluate the symmetric condition p * e * (d_min + 1) <= 1.

    Reads every probability from *profile*, ``compute_profile(a, tol)`` when
    not given; one built from another assignment or tolerances raises
    ``ValidationError``.  *p* defaults to the largest marginal; a *p* outside
    [0, 1] raises ``BadPError`` before any walk, one below that maximum after
    it.  A condition value within ``tol.prob`` of 1 is "boundary", and a
    "pass" needs Pr[no event] to exceed ``tol.prob``.
    """
    p = None if p is None else _real(p, "supplied p")
    if p is not None and not (0.0 <= p <= 1.0):  # NaN and infinities fail it too
        raise BadPError(f"supplied p={p!r} is not a finite probability in [0, 1]")
    if profile is None:
        profile = compute_profile(a, tol)
    elif profile.assignment is not a or profile.tol != tol:
        raise ValidationError("the profile was built from another assignment or under other tolerances")
    p_max = max(profile.marginals)
    if p is None:
        p = float(p_max)
    elif p < p_max - tol.prob:
        raise BadPError(
            f"supplied p={p!r} is below the measured maximum marginal {p_max!r}",
            p=p,
            p_max=p_max,
        )
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
        positivity_ok = profile.avoided > tol.prob
        if condition == "boundary":
            verdict = "boundary"
        else:
            verdict = "pass" if positivity_ok else "inconclusive"

    return SymmetricReport(
        p=p,
        d_min=d,
        condition_value=value,
        condition=condition,
        lhs=profile.avoided,
        explicit_bound=explicit_bound,
        positivity_ok=positivity_ok,
        verdict=verdict,
        p_max=p_max,
        chain_ok=chain_ok,
    )
