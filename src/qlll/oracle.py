"""Independent ground-truth engines: exhaustive trajectory enumeration and
Born-rule Monte Carlo.

Both avoid the super-operator composition used by the main probability path.
Enumeration computes, for every outcome tuple, the operator product
``W = M_{m_k} ... M_{m_1}`` and accumulates ``tr(W rho W^dagger)``.  Sampling
is the Monte Carlo wave-function method (Dalibard, Castin & Molmer, PRL 68,
580, 1992): each trajectory starts in an eigenvector of ``rho`` drawn with its
eigenvalue as weight, and at every step draws an outcome from the Born
weights ``|M_m psi|^2`` and keeps the normalized branch ``M_m psi``.
Trajectories with the same history (start eigenvector and outcomes so far)
share one state, so each step applies the Kraus operators once per distinct
live history, and a trajectory stops once an outcome falls outside its event.
Agreement between the three routes is what the test suite leans on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .errors import EnumerationCapError, InternalConsistencyError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .probability import TestEventAssignment, _clamp_probability, _integer, check_index_set

DEFAULT_ENUM_CAP = 10**6
SAMPLER_ALGORITHM = "numpy:PCG64"

# each sampling step must see outcome probabilities summing to one
_STEP_DRIFT = 1e-6
# trajectories per batch; each batch draws from its own spawned seed
_CHUNK = 50_000


def enumerate_probability(
    a: TestEventAssignment,
    K: Iterable[int],
    cap: int = DEFAULT_ENUM_CAP,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Marginal probability of the events at *K* by summing trajectories.

    Enumerates every outcome tuple of the first ``max(K)`` measurements whose
    entries at *K* fall in the assigned events, computing each trajectory's
    probability from the bare operator product.  ``K = ()`` gives the one
    empty trajectory, of probability ``tr(rho)``, as ``pr_test_marginal`` does.

    Raises
    ------
    ValidationError
        When *cap* is not an integer of at least 1.
    EnumerationCapError
        When the full outcome grid of the horizon exceeds *cap*, whatever the
        events at *K* exclude.
    """
    K = check_index_set(K, a.n)
    cap = _integer(cap, "cap", 1)
    horizon = a.test.measurements[: max(K, default=0)]
    choices = [
        [lab for lab in m.spectrum if i not in K or lab in a.event(i).outcomes]
        for i, m in enumerate(horizon, start=1)
    ]
    grid = math.prod(len(m.spectrum) for m in horizon)
    if grid > cap:
        raise EnumerationCapError(
            f"horizon has {grid} trajectories, above the cap {cap}", grid=grid, cap=cap
        )
    rho = a.test.rho.matrix
    identity = np.eye(a.test.rho.dim, dtype=np.complex128)
    # left-to-right float sum; built-in sum() is compensated from Python 3.12
    total = 0.0
    for combo in itertools.product(*choices):
        w = identity
        for m, label in zip(horizon, combo):
            w = m.kraus[label] @ w
        total += float(np.trace(w @ rho @ w.conj().T).real)
    return _clamp_probability(total, tol)


@dataclass(frozen=True)
class SampleEstimate:
    estimate: float
    n_samples: int
    std_error: float
    seed: int
    algorithm: str = SAMPLER_ALGORITHM

    def to_json(self) -> dict:
        return asdict(self)


def _sample_chunk(a: TestEventAssignment, K: tuple[int, ...], size: int, rng) -> int:
    """Walk *size* state-vector trajectories in one batch; return the success count.

    The start eigenvectors come from ``rho``'s decomposition, computed once per
    state (``DensityOperator.eigh``), and each start is drawn as each outcome
    is: the count of normalized cumulative weights at or below a uniform u.
    ``table`` holds one state per distinct live history; each live trajectory
    keeps its row in ``which`` and its batch position in ``alive``, so it
    reads the same uniforms as in a walk of the whole batch.
    """
    values, vectors = a.test.rho.eigh
    cum = np.clip(values, 0.0, None)
    for j in range(1, len(cum)):
        cum[j] += cum[j - 1]
    u = rng.random(size)
    which = np.zeros(size, dtype=np.intp)
    for c in (cum / cum[-1])[:-1]:
        which += c <= u
    table = vectors.T
    alive = np.arange(size)
    for step in range(1, max(K, default=0) + 1):
        m = a.test.measurements[step - 1]
        k = len(m.spectrum)
        stacked = np.concatenate([m.kraus[lab] for lab in m.spectrum])
        branches = (table @ stacked.T).reshape(len(table) * k, -1)
        # |branch|^2 from the float view: no conjugate copy of the branches
        flat = branches.view(np.float64).reshape(len(table), k, -1)
        probs = np.einsum("bkj,bkj->bk", flat, flat)
        # a column at a time over the table: np.cumsum along this axis was slow
        cum = probs.copy()
        for j in range(1, k):
            cum[:, j] += cum[:, j - 1]
        drift = np.abs(cum[:, -1] - 1.0).max()
        if not drift <= _STEP_DRIFT:  # also when a NaN weight makes drift NaN
            raise InternalConsistencyError(
                f"outcome probabilities at step {step} sum to 1 {drift:.2e} off",
                step=step,
                drift=float(drift),
            )
        cum /= cum[:, -1:]
        # draw the first outcome whose cumulative weight passes u: the last column
        # is 1.0 > u and cum never decreases, so that is the count of columns <= u;
        # codes number the drawn branches, row * k + outcome
        u = rng.random(size)[alive]
        codes = which * k
        for j in range(k - 1):
            codes += cum[:, j][which] <= u
        if step in K:
            inside = np.tile([lab in a.event(step).outcomes for lab in m.spectrum], len(table))
            kept = np.flatnonzero(inside[codes])
            alive, codes = alive[kept], codes[kept]
            if not len(alive):
                return 0
        # one table row per drawn branch, numbered in branch order
        used = np.zeros(len(branches), dtype=bool)
        used[codes] = True
        picked = np.flatnonzero(used)
        remap = np.empty(len(branches), dtype=np.intp)
        remap[picked] = np.arange(len(picked))
        which = remap[codes]
        table = branches[picked]
        table /= np.sqrt(probs.ravel()[picked])[:, None]
        del branches, flat  # freed before the next step allocates its branches
    return len(alive)


def sample_trajectories(
    a: TestEventAssignment, K: Iterable[int], n_samples: int, seed: int
) -> SampleEstimate:
    """Monte Carlo estimate of the marginal probability of the events at *K*.

    Parameters
    ----------
    n_samples : int
        Trajectories to draw.
    seed : int
        Non-negative; seeds a PCG64 generator, so identical seeds give
        bit-identical estimates.  Each chunk of up to 50 000 trajectories
        draws from its own child of ``SeedSequence(seed)``.

    Returns
    -------
    SampleEstimate
        With the binomial standard error ``sqrt(est * (1 - est) / n)``.  An
        empty *K* walks no step, so every trajectory succeeds: estimate 1.0,
        standard error 0.0.
    """
    K = check_index_set(K, a.n)
    n_samples, seed = _integer(n_samples, "n_samples", 1), _integer(seed, "seed", 0)
    # each chunk spawns its child when it starts: the same children as one
    # spawn of them all, without holding one per chunk before the first draw
    root = np.random.SeedSequence(seed)
    successes = sum(
        _sample_chunk(a, K, min(_CHUNK, n_samples - start), np.random.default_rng(root.spawn(1)[0]))
        for start in range(0, n_samples, _CHUNK)
    )
    est = successes / n_samples
    std_error = math.sqrt(est * (1.0 - est) / n_samples)
    return SampleEstimate(estimate=est, n_samples=n_samples, std_error=std_error, seed=seed)
