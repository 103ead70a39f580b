import hashlib
import re
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest

from helpers import build_pool, rand_subset, suite_rng
from qlll import oracle
from qlll.errors import EnumerationCapError, InternalConsistencyError, ValidationError
from qlll.events import Event, Measurement, complete_event
from qlll.generate import GeneratorKind, GeneratorSpec, generate
from qlll.oracle import (
    _CHUNK,
    _STEP_DRIFT,
    SAMPLER_ALGORITHM,
    SampleEstimate,
    enumerate_probability,
    sample_trajectories,
)
from qlll.linalg import validate_density
from qlll.probability import Test, TestEventAssignment, pr_test_marginal


@pytest.fixture(scope="module")
def pool():
    return build_pool(40)


def test_enumeration_matches_superoperator_route(pool):
    rng = suite_rng(90, 0)
    for a in pool:
        slots = tuple(range(1, a.n + 1))
        for _ in range(3):
            K = rand_subset(rng, slots, min_size=1)
            assert enumerate_probability(a, K) == pytest.approx(
                pr_test_marginal(a, K), abs=1e-10
            )


def test_enumeration_cap():
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=3, local_dim=3, seed=5))
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_probability(a, (a.n,), cap=2)
    assert exc.value.detail["cap"] == 2
    assert exc.value.detail["grid"] > 2
    assert enumerate_probability(a, (a.n,), cap=np.int64(10**6)) == enumerate_probability(a, (a.n,))


@pytest.mark.parametrize(
    "bad, message",
    [("10", "cap '10' is not an integer"), (True, "cap True is not an integer"),
     (2.5, "cap 2.5 is not an integer"), (0, "cap must be at least 1, got 0")],
    ids=["str", "bool", "float", "zero"],
)
def test_enumeration_cap_must_be_a_positive_integer(pool, bad, message):
    # cap="10" used to end in a bare TypeError, True read as a cap of 1, and 0
    # as a cap that every horizon exceeds
    with pytest.raises(ValidationError, match=re.escape(message)):
        enumerate_probability(pool[0], (1,), cap=bad)


def test_enumeration_degenerate_index_sets(pool):
    a = pool[0]
    assert enumerate_probability(a, ()) == pr_test_marginal(a, ())
    emptied = a.with_event(1, Event(a.test.measurements[0], []))
    assert enumerate_probability(emptied, (1,)) == 0.0


def test_empty_index_set_agrees_across_routes(pool):
    # the exact routes give tr(rho); the sampler walks no step and succeeds
    for a in pool:
        assert enumerate_probability(a, ()) == pr_test_marginal(a, ())
        est = sample_trajectories(a, (), n_samples=50, seed=0)
        assert (est.estimate, est.std_error) == (1.0, 0.0)


def test_sampler_seed_reproducibility(pool):
    a = pool[1]
    K = (1, a.n)
    first = sample_trajectories(a, K, n_samples=4000, seed=11)
    second = sample_trajectories(a, K, n_samples=4000, seed=11)
    assert first == second
    other = sample_trajectories(a, K, n_samples=4000, seed=12)
    assert other.seed == 12


def _reference_chunk(a, K, size, rng):
    """The sampler step in its plainest form: ``np.cumsum`` along the outcome
    axis, draws by ``argmax`` and a two-index gather of the drawn branch."""
    values, vectors = np.linalg.eigh(a.test.rho.matrix)
    cum = np.cumsum(np.clip(values, 0.0, None))
    states = vectors[:, (cum / cum[-1] > rng.random(size)[:, None]).argmax(axis=1)].T
    rows = np.arange(size)
    success = np.ones(size, dtype=bool)
    for step in range(1, max(K, default=0) + 1):
        m = a.test.measurements[step - 1]
        stacked = np.concatenate([m.kraus[lab] for lab in m.spectrum])
        branches = (states @ stacked.T).reshape(size, len(m.spectrum), -1)
        flat = branches.view(np.float64)
        probs = np.einsum("bkj,bkj->bk", flat, flat)
        cum = np.cumsum(probs, axis=1)
        if not np.abs(cum[:, -1] - 1.0).max() <= _STEP_DRIFT:
            raise InternalConsistencyError(f"step {step} off")
        cum /= cum[:, -1:]
        drawn = (cum > rng.random(size)[:, None]).argmax(axis=1)
        states = branches[rows, drawn]
        states /= np.sqrt(probs[rows, drawn])[:, None]
        if step in K:
            success &= np.array([lab in a.event(step).outcomes for lab in m.spectrum])[drawn]
    return int(success.sum())


def _reference_estimates(monkeypatch, runs):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_sample_chunk", _reference_chunk)
        return [sample_trajectories(*run) for run in runs]


def test_sampler_multichunk_path_is_deterministic(pool, monkeypatch):
    a = pool[2]
    K = tuple(range(1, a.n + 1))
    n = _CHUNK + 1
    one = sample_trajectories(a, K, n_samples=n, seed=3)
    two = sample_trajectories(a, K, n_samples=n, seed=3)
    assert one == two
    assert one.n_samples == n
    assert [one] == _reference_estimates(monkeypatch, [(a, K, n, 3)])


def test_sampler_draws_match_the_reference_step(pool, monkeypatch):
    rng = suite_rng(92, 0)
    runs = []
    for a in pool:
        slots = tuple(range(1, a.n + 1))
        for K in (slots, rand_subset(rng, slots, min_size=1)):
            runs += [(a, K, 1500, seed) for seed in (0, 1, 12345)]
    got = [sample_trajectories(*run) for run in runs]
    assert got == _reference_estimates(monkeypatch, runs)
    # the draws differ from run to run, so equality is not read off constants
    assert len({est.estimate for est in got}) > len(runs) // 4


def test_sampler_estimates_are_pinned_bit_for_bit(pool):
    # repr writes each float's shortest form, so any changed draw changes the digest
    rng = suite_rng(93, 0)
    runs = []
    for a in pool:
        slots = tuple(range(1, a.n + 1))
        for K in (slots, rand_subset(rng, slots, min_size=1)):
            runs += [(a, K, 2000, seed) for seed in (0, 1, 12345)]
    a = pool[2]
    runs.append((a, tuple(range(1, a.n + 1)), _CHUNK + 1, 3))
    got = repr([sample_trajectories(*run) for run in runs])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "db02bb37f6845489759dc262ff0a42333310151da27e911723733c211fc8bbe3"
    )


def _complete(a):
    """*a* with the complete event at every slot."""
    return TestEventAssignment(a.test, {i: complete_event(m) for i, m in enumerate(a.test.measurements, 1)})


def test_sampler_draws_match_the_reference_step_at_the_edges(pool, monkeypatch):
    # one trajectory; an emptied event, where every trajectory leaves at slot 1;
    # complete events, where none ever leaves; and K = (n,), walking n - 1
    # unchecked slots first
    runs = []
    for a in pool:
        slots = tuple(range(1, a.n + 1))
        emptied = a.with_event(1, Event(a.test.measurements[0], []))
        for seed in (0, 7):
            runs += [(a, slots, 1, seed), (a, (a.n,), 1, seed), (a, (a.n,), 600, seed)]
            runs += [(emptied, slots, 600, seed), (_complete(a), slots, 600, seed)]
    got = [sample_trajectories(*run) for run in runs]
    assert got == _reference_estimates(monkeypatch, runs)
    assert {est.estimate for est in got[3::5]} == {0.0}
    assert {est.estimate for est in got[4::5]} == {1.0}


def test_start_draw_matches_the_reference_at_clipped_and_zero_eigenvalues(monkeypatch):
    # a d=16 start with two negative eigenvalues (clipped to weight 0) and six
    # exact zeros: eight leading zero weights, which a uniform of 0.0 ties.  Slot
    # 1 measures the basis that diagonalizes rho, and its event holds the
    # weighted vectors, so a zero-weight start would leave at once
    a = generate(GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=3, local_dim=2, seed=4))
    weights = suite_rng(94, 0).dirichlet(np.ones(8)) * (1 + 7e-10)
    spectrum = suite_rng(94, 1).permutation(np.concatenate([[-4e-10, -3e-10], np.zeros(6), weights]))
    rho = validate_density(np.diag(spectrum))
    assert rho.dim == 16 and (rho.eigh[0] < 0).sum() == 2 and (rho.eigh[0] == 0).sum() == 6
    basis = np.eye(16)
    z = Measurement("z", {str(i): np.outer(basis[i], basis[i]) for i in range(16)})
    weighted = Event(z, {str(i) for i in range(16) if spectrum[i] > 0})
    events = {1: weighted, **{i + 1: e for i, e in a.events.items()}}
    b = TestEventAssignment(Test(rho, (z, *a.test.measurements)), events)
    slots = b.assigned()
    for draws in (_ZeroDraws, lambda: np.random.default_rng(3)):
        for K in (slots, slots[:1], (b.n,)):
            assert oracle._sample_chunk(b, K, 700, draws()) == _reference_chunk(b, K, 700, draws())
    assert oracle._sample_chunk(b, (1,), 700, _ZeroDraws()) == 700
    runs = [(b, slots, 3000, seed) for seed in (0, 1, 12345)]
    assert [sample_trajectories(*run) for run in runs] == _reference_estimates(monkeypatch, runs)


def test_start_decomposition_is_computed_once_per_state(monkeypatch):
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=3, local_dim=2, seed=8))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    K = a.assigned()
    for n_samples, seed in ((100, 0), (100, 1), (_CHUNK + 1, 2)):
        sample_trajectories(a, K, n_samples, seed)
    assert len(calls) == 1
    values, vectors = a.test.rho.eigh
    assert not values.flags.writeable and not vectors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        vectors[0, 0] = 0.0


class _CountingDraws:
    """Generator stand-in that counts its ``random`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


def test_sampler_stops_once_no_trajectory_is_inside_the_events(pool):
    # one draw picks the start states and one the slot-1 outcomes; with slot 1's
    # event emptied no trajectory is left to walk slots 2..n
    a = next(a for a in pool if a.n >= 3)
    slots = tuple(range(1, a.n + 1))
    emptied = a.with_event(1, Event(a.test.measurements[0], []))
    draws = _CountingDraws(0)
    assert oracle._sample_chunk(emptied, slots, 500, draws) == 0
    assert draws.calls == 2
    # complete events keep every trajectory, so each slot draws once
    draws = _CountingDraws(0)
    assert oracle._sample_chunk(_complete(a), slots, 500, draws) == 500
    assert draws.calls == a.n + 1


class _ZeroDraws:
    """Generator stand-in whose every uniform draw is 0.0: the one value that
    ties with the cumulative weight of leading zero-weight outcomes."""

    def random(self, size):
        return np.zeros(size)


def test_sampler_never_draws_a_zero_weight_outcome():
    # start in |1><1| and measure in the basis ordered 0, 2, 1: eigenvalues and
    # Born weights both run 0, 0, 1, so u = 0.0 ties with two leading zeros
    basis = np.eye(3)
    m = Measurement("z", {lab: np.outer(basis[int(lab)], basis[int(lab)]) for lab in "021"})
    rho = validate_density(np.outer(basis[1], basis[1]))
    a = TestEventAssignment(Test(rho, (m, m)), {1: Event(m, {"1"}), 2: Event(m, {"1"})})
    got = oracle._sample_chunk(a, (1, 2), 10, _ZeroDraws())
    assert got == _reference_chunk(a, (1, 2), 10, _ZeroDraws()) == 10


def test_sampler_rejects_a_nan_born_weight():
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=2, local_dim=2, seed=3))
    m = a.test.measurements[0]
    # a measurement is frozen; writing its field past the dataclass is the only
    # way past the completeness check in Measurement.__post_init__
    object.__setattr__(m, "kraus", MappingProxyType({**m.kraus, m.spectrum[0]: np.full((2, 2), np.nan)}))
    with pytest.raises(InternalConsistencyError) as exc:
        sample_trajectories(a, (1,), n_samples=100, seed=0)
    assert exc.value.detail["step"] == 1


def test_sampler_never_holds_a_density_matrix_batch():
    a = generate(GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=3, local_dim=2, seed=4))
    d = a.test.rho.dim
    assert d == 16
    size = 4000
    tracemalloc.start()
    try:
        sample_trajectories(a, a.assigned(), n_samples=size, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * d * d * 16  # one (size, d, d) complex128 batch


def test_sampler_on_a_pure_start_state():
    a = generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES, seed=0))
    assert np.linalg.matrix_rank(a.test.rho.matrix) == 1  # |+><+|
    m1, m2 = a.test.measurements
    empty = a.with_event(1, Event(m1, []))
    assert sample_trajectories(empty, (1,), n_samples=2000, seed=5).estimate == 0.0
    complete = a.with_event(1, Event(m1, m1.spectrum)).with_event(2, Event(m2, m2.spectrum))
    assert sample_trajectories(complete, (1, 2), n_samples=2000, seed=5).estimate == 1.0
    est = sample_trajectories(a, (1, 2), n_samples=20_000, seed=5)
    assert abs(est.estimate - enumerate_probability(a, (1, 2))) <= 4.0 * est.std_error


def test_sampler_tracks_exact_probability(pool):
    rng = suite_rng(91, 0)
    checked = 0
    for a in pool:
        slots = tuple(range(1, a.n + 1))
        K = rand_subset(rng, slots, min_size=1)
        exact = enumerate_probability(a, K)
        if not 0.05 <= exact <= 0.95:
            continue
        est = sample_trajectories(a, K, n_samples=20_000, seed=500 + checked)
        assert abs(est.estimate - exact) <= 4.5 * est.std_error
        checked += 1
        if checked == 8:
            break
    assert checked == 8


def test_sampler_empty_selection():
    a = generate(GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=2, local_dim=2, seed=1))
    est = sample_trajectories(a, (), n_samples=100, seed=0)
    assert est == SampleEstimate(estimate=1.0, n_samples=100, std_error=0.0, seed=0)


def test_sampler_rejects_bad_sample_count(pool):
    with pytest.raises(ValidationError):
        sample_trajectories(pool[0], (1,), n_samples=0, seed=0)


@pytest.mark.parametrize(
    "bad", [10.7, 2.0, True, np.True_, "3", None], ids=["float", "integral-float", "bool", "numpy-bool", "str", "none"]
)
def test_sampler_counts_and_seeds_must_be_integers(pool, bad):
    # n_samples=10.7 used to draw 10 trajectories, seed=True came back as
    # "seed": true, and seed=1.5 ended in a bare TypeError
    probes = {"n_samples": dict(n_samples=bad, seed=0), "seed": dict(n_samples=10, seed=bad)}
    for name, kwargs in probes.items():
        with pytest.raises(ValidationError, match=f"{name} {re.escape(repr(bad))} is not an integer"):
            sample_trajectories(pool[0], (1,), **kwargs)


def test_sampler_reads_numpy_integers_as_ints(pool):
    est = sample_trajectories(pool[0], (1,), n_samples=np.int32(100), seed=np.uint8(3))
    assert est == sample_trajectories(pool[0], (1,), n_samples=100, seed=3)
    assert (type(est.n_samples), type(est.seed)) == (int, int)
    with pytest.raises(ValidationError, match="n_samples must be at least 1, got 0"):
        sample_trajectories(pool[0], (1,), n_samples=np.int64(0), seed=0)
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        sample_trajectories(pool[0], (1,), n_samples=10, seed=np.int8(-1))


def test_sample_estimate_json():
    doc = SampleEstimate(estimate=0.5, n_samples=10, std_error=0.1, seed=4).to_json()
    assert doc == {
        "estimate": 0.5,
        "n_samples": 10,
        "std_error": 0.1,
        "seed": 4,
        "algorithm": SAMPLER_ALGORITHM,
    }
    assert SAMPLER_ALGORITHM == "numpy:PCG64"
