"""Independent ground-truth engines: exhaustive trajectory enumeration and
Born-rule Monte Carlo.

Both avoid the super-operator composition used by the main probability path.
Enumeration computes, for every outcome tuple, the operator product
``W = M_{m_k} ... M_{m_1}`` and accumulates ``tr(W rho W^dagger)``; sampling
walks single trajectories by drawing each outcome from its Born probability
and renormalizing.  Agreement between the three routes is what the test
suite leans on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EnumerationCapError, InternalConsistencyError, ValidationError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .probability import Test, TestEventAssignment, check_index_set

DEFAULT_ENUM_CAP = 10**6
SAMPLER_ALGORITHM = "numpy:PCG64"

# each sampling step must see outcome probabilities summing to one
_STEP_DRIFT = 1e-6


class Trajectory(NamedTuple):
    outcomes: tuple[str, ...]


def _trajectories(test: Test, choices: list, cap: int):
    """Yield ``(outcomes, probability)`` for every outcome tuple drawn from
    *choices* (one label list per slot, starting at slot 1).

    The cap applies to the full outcome grid of the first ``len(choices)``
    measurements, whatever the choices exclude.
    """
    grid = math.prod(len(m.spectrum) for m in test.measurements[: len(choices)])
    if grid > cap:
        raise EnumerationCapError(
            f"horizon has {grid} trajectories, above the cap {cap}", grid=grid, cap=cap
        )
    rho = test.rho.matrix
    for combo in itertools.product(*choices):
        w = test.measurements[0].kraus[combo[0]]
        for i, label in enumerate(combo[1:], start=2):
            w = test.measurements[i - 1].kraus[label] @ w
        yield combo, float(np.trace(w @ rho @ w.conj().T).real)


def enumerate_probability(
    a: TestEventAssignment,
    K: Iterable[int],
    cap: int = DEFAULT_ENUM_CAP,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Marginal probability of the events at *K* by summing trajectories.

    Enumerates every outcome tuple of the first ``max(K)`` measurements whose
    entries at *K* fall in the assigned events, computing each trajectory's
    probability from the bare operator product.

    Raises
    ------
    EnumerationCapError
        When the full outcome grid of the horizon exceeds *cap*.
    """
    K = check_index_set(K, a.n)
    if not K:
        return 1.0
    choices = [
        [lab for lab in m.spectrum if i not in K or lab in a.event(i).outcomes]
        for i, m in enumerate(a.test.measurements[: K[-1]], start=1)
    ]
    # left-to-right float sum; built-in sum() is compensated from Python 3.12
    total = 0.0
    for _, p in _trajectories(a.test, choices, cap):
        total += p
    if total < -tol.prob or total > 1.0 + tol.prob:
        raise InternalConsistencyError(
            f"enumerated probability {total!r} strays outside [0,1]", value=total
        )
    return min(max(total, 0.0), 1.0)


def trajectory_distribution(
    test: Test, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[Trajectory, float]]:
    """All full-horizon trajectories with their probabilities.

    The probabilities sum to one up to rounding; the suite asserts this.
    """
    choices = [m.spectrum for m in test.measurements]
    return [(Trajectory(outcomes=combo), p) for combo, p in _trajectories(test, choices, cap)]


@dataclass(frozen=True)
class SampleEstimate:
    estimate: float
    n_samples: int
    std_error: float
    seed: int
    algorithm: str = SAMPLER_ALGORITHM

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "n_samples": self.n_samples,
            "std_error": self.std_error,
            "seed": self.seed,
            "algorithm": self.algorithm,
        }


def _sample_chunk(a: TestEventAssignment, K: tuple[int, ...], size: int, rng) -> int:
    """Evolve *size* trajectories in one batch; return the success count."""
    horizon = K[-1]
    d = a.test.rho.dim
    states = np.broadcast_to(a.test.rho.matrix, (size, d, d)).copy()
    choices = np.empty((size, horizon), dtype=np.int64)
    for step in range(1, horizon + 1):
        m = a.test.measurements[step - 1]
        ops = [m.kraus[lab] for lab in m.spectrum]
        probs = np.empty((size, len(ops)))
        for j, op in enumerate(ops):
            probs[:, j] = np.einsum(
                "ij,bjk,ik->b", op, states, op.conj(), optimize=True
            ).real
        total = probs.sum(axis=1)
        drift = np.abs(total - 1.0).max()
        if drift > _STEP_DRIFT:
            raise InternalConsistencyError(
                f"outcome probabilities at step {step} sum to 1 {drift:.2e} off",
                step=step,
                drift=float(drift),
            )
        np.clip(probs, 0.0, None, out=probs)
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        u = rng.random(size)
        drawn = (cum <= u[:, None]).sum(axis=1)
        choices[:, step - 1] = drawn
        for j, op in enumerate(ops):
            mask = drawn == j
            if not mask.any():
                continue
            evolved = np.einsum("ij,bjk,lk->bil", op, states[mask], op.conj())
            norms = np.einsum("bii->b", evolved).real
            states[mask] = evolved / norms[:, None, None]
    success = np.ones(size, dtype=bool)
    for i in K:
        m = a.test.measurements[i - 1]
        allowed = [j for j, lab in enumerate(m.spectrum) if lab in a.event(i).outcomes]
        success &= np.isin(choices[:, i - 1], allowed)
    return int(success.sum())


def sample_trajectories(
    a: TestEventAssignment,
    K: Iterable[int],
    n_samples: int,
    seed: int,
    chunk: int = 50_000,
) -> SampleEstimate:
    """Monte Carlo estimate of the marginal probability of the events at *K*.

    Parameters
    ----------
    n_samples : int
        Trajectories to draw.
    seed : int
        Seeds a PCG64 generator; identical seeds give bit-identical
        estimates.  Work is split into chunks, each driven by an
        independently spawned child seed, so chunking does not change the
        answer for a fixed ``chunk``.

    Returns
    -------
    SampleEstimate
        With the binomial standard error ``sqrt(est * (1 - est) / n)``.
    """
    K = check_index_set(K, a.n)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be positive, got {n_samples}")
    if not K:
        return SampleEstimate(estimate=1.0, n_samples=n_samples, std_error=0.0, seed=seed)
    sizes = [chunk] * (n_samples // chunk)
    if n_samples % chunk:
        sizes.append(n_samples % chunk)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    successes = 0
    for size, stream in zip(sizes, streams):
        successes += _sample_chunk(a, K, size, np.random.default_rng(stream))
    est = successes / n_samples
    std_error = math.sqrt(est * (1.0 - est) / n_samples)
    return SampleEstimate(estimate=est, n_samples=n_samples, std_error=std_error, seed=seed)
