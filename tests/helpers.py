"""Shared fixtures helpers: the seeded instance pool, index utilities, the
complemented-assignment reference and rare-event inputs."""

from __future__ import annotations

import numpy as np

from qlll.errors import ValidationError
from qlll.events import SuperOperator, complement
from qlll.generate import GeneratorKind, GeneratorSpec, _drop_outcome, generate
from qlll.probability import pr_test_marginal

POOL_SIZE = 200

# Kind cycle keeps every fourth instance a tensor product (independence by
# construction) and mixes projective and POVM measurements at dims 2 to 4.
_KIND_CYCLE = (
    GeneratorKind.RANDOM_PROJECTIVE,
    GeneratorKind.RANDOM_POVM,
    GeneratorKind.TENSOR_PRODUCT,
    GeneratorKind.DEPENDENT_CHAIN,
)


def pool_spec(t: int) -> GeneratorSpec:
    kind = _KIND_CYCLE[t % 4]
    n = 2 + (t // 4) % 3
    if kind is GeneratorKind.TENSOR_PRODUCT:
        # total dimension 2*2 = 4 keeps the dim <= 4 budget
        return GeneratorSpec(kind=kind, n=2, local_dim=2, seed=1000 + t)
    if kind is GeneratorKind.DEPENDENT_CHAIN:
        return GeneratorSpec(kind=kind, n=n, local_dim=2, seed=1000 + t)
    return GeneratorSpec(kind=kind, n=n, local_dim=2 + t % 3, seed=1000 + t)


def build_pool(size: int = POOL_SIZE):
    return [generate(pool_spec(t)) for t in range(size)]


def suite_rng(suite_id: int, t: int) -> np.random.Generator:
    return np.random.default_rng(10_000 * suite_id + t)


def rand_subset(rng, items, min_size=0, max_size=None) -> tuple:
    """Random subset of items, preserving their order, size in the range."""
    items = list(items)
    if max_size is None:
        max_size = len(items)
    max_size = min(max_size, len(items))
    if max_size < min_size:
        return ()
    size = int(rng.integers(min_size, max_size + 1))
    if size == 0:
        return ()
    picked = sorted(rng.choice(len(items), size=size, replace=False))
    return tuple(items[j] for j in picked)


def split_two(rng, items) -> tuple[tuple, tuple]:
    """Partition items (at least two of them) into two nonempty parts."""
    items = list(items)
    assert len(items) >= 2
    order = rng.permutation(len(items))
    cut = int(rng.integers(1, len(items)))
    left = sorted(order[:cut])
    right = sorted(order[cut:])
    return tuple(items[j] for j in left), tuple(items[j] for j in right)


def split_indices(rng, indices, pieces: int):
    """Split a sorted index tuple into consecutive (possibly empty) groups."""
    indices = tuple(indices)
    cuts = sorted(int(rng.integers(0, len(indices) + 1)) for _ in range(pieces - 1))
    out = []
    prev = 0
    for c in list(cuts) + [len(indices)]:
        out.append(indices[prev:c])
        prev = c
    return out


def count_channel_work(monkeypatch) -> list[str]:
    """Names of the channel applications (``__call__``) and effect reads (``trace_of``) made from now on."""
    calls = []
    for name in ("__call__", "trace_of"):
        original = getattr(SuperOperator, name)

        def counting(self, sigma, name=name, original=original):
            calls.append(name)
            return original(self, sigma)

        monkeypatch.setattr(SuperOperator, name, counting)
    return calls


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """*a* and *b* hold the same values with the same dtype, signs of zero included."""
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def overcomplete_pair(dim: int, excess: float) -> dict[str, np.ndarray]:
    """``{sqrt(1 + excess) P, sqrt(1 + excess) (I - P)}``, P onto the first half of the basis.

    Its ``sum K^dagger K`` is ``(1 + excess) I``, so its completeness residual
    is *excess*, which the default ``tol.complete`` admits below 1e-9.
    """
    half = np.diag(np.arange(dim) < dim // 2).astype(float)
    scale = np.sqrt(1 + excess)
    return {"0": scale * half, "1": scale * (np.eye(dim) - half)}


# the ratio probe: M1 in {12} selects the small eigenvalue 2.5e-9 and the
# negative one, so the conditioning marginal reads 2e-9, and M2 in {1} then
# selects 2.5e-9 alone; the state's budget is its negative mass, 0.5e-9
RATIO_PROBE_STATE = np.diag([1 - 2e-9, 2.5e-9, -0.5e-9])
RATIO_PROBE_KRAUS = {
    "M1": {"0": np.diag([1.0, 0.0, 0.0]), "12": np.diag([0.0, 1.0, 1.0])},
    "M2": {"1": np.diag([0.0, 1.0, 0.0]), "02": np.diag([1.0, 0.0, 1.0])},
}
RATIO_PROBE_EVENTS = (("12",), ("1",))


def complemented(a, slots):
    """*a* with the event at each of *slots* replaced by its complement.

    The reference route for conditioning on complements: a fresh assignment
    per slot, where the library walks its own miss channels instead.
    """
    for i in slots:
        a = a.with_event(i, complement(a.event(i)))
    return a


def rarefy_events(a, p_cap: float, rng: np.random.Generator):
    """Shrink event outcome sets until every single-event marginal is <= p_cap."""
    if not (0.0 <= p_cap <= 1.0):  # NaN and infinities fail it too
        raise ValidationError(f"p_cap={p_cap!r} is not a probability in [0, 1]")
    while True:
        marginals = {i: pr_test_marginal(a, (i,)) for i in a.assigned()}
        worst = max(marginals, key=marginals.get)
        if marginals[worst] <= p_cap:
            return a
        # an empty event has marginal 0, so progress is guaranteed
        a = _drop_outcome(a, worst, rng)
