import dataclasses
import gc
import weakref
from types import MappingProxyType

import numpy as np
import pytest

from helpers import build_pool, complemented, same_bits
from qlll.errors import (
    DifferentMeasurementsError,
    DimensionMismatchError,
    NotCompleteError,
    ParseError,
    ValidationError,
)
from qlll import events
from qlll.events import (
    Event,
    Measurement,
    SuperOperator,
    complement,
    complete_event,
    empty_event,
    parse_event_expr,
    parse_event_seq,
    super_operator_of,
    union,
)
from qlll.generate import (
    GeneratorKind,
    GeneratorSpec,
    computational_measurement,
    generate,
    plus_state,
    random_povm_measurement,
    zx_measurement_pair,
)
from qlll.independence import compute_profile
from qlll.linalg import DEFAULT_TOL, validate_density
from qlll.oracle import enumerate_probability
from qlll.probability import pr_test_marginal
from qlll.serialize import dumps, loads


def test_computational_measurement_is_projective():
    m = computational_measurement(3, "Z3")
    assert m.projective
    assert m.spectrum == ("0", "1", "2")
    assert m.dim == 3


def test_spectrum_keeps_insertion_order():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    m = Measurement("M", {"up": p1, "down": p0})
    assert m.spectrum == ("up", "down")


def test_incomplete_kraus_family_rejected():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    with pytest.raises(NotCompleteError):
        Measurement("bad", {"0": p0})


def test_mixed_operator_dimensions_rejected():
    with pytest.raises(DimensionMismatchError, match="mixes operator dimensions 2 and 3"):
        Measurement("mixed", {"0": np.eye(2), "1": np.eye(3)})


def _noisy_measurement():
    # two scaled identities: complete, but not projections
    k0 = np.sqrt(0.3) * np.eye(2, dtype=complex)
    k1 = np.sqrt(0.7) * np.eye(2, dtype=complex)
    return Measurement("noisy", {"0": k0, "1": k1})


def test_non_projective_family_detected():
    assert not _noisy_measurement().projective


def test_projective_is_decided_when_read(monkeypatch):
    calls = []
    detect = Measurement._detect_projective

    def counted(ops, tol):
        calls.append(1)
        return detect(ops, tol)

    monkeypatch.setattr(Measurement, "_detect_projective", staticmethod(counted))
    m = _noisy_measurement()
    assert calls == []
    assert not m.projective
    assert calls == [1]


def test_projective_equals_the_decision_at_construction():
    measurements = [m for a in build_pool(40) for m in a.test.measurements] + [_noisy_measurement()]
    decided = [Measurement._detect_projective(list(m.kraus.values()), DEFAULT_TOL) for m in measurements]
    assert [m.projective for m in measurements] == decided
    assert True in decided and False in decided


def test_zx_pair_second_measurement_uses_plus_basis():
    _, m2 = zx_measurement_pair()
    plus_proj = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.allclose(m2.kraus["0"], plus_proj, atol=1e-12)
    assert m2.projective


def test_measurement_equality_and_hash():
    a = computational_measurement(2, "Z")
    b = computational_measurement(2, "Z")
    c = computational_measurement(2, "X")
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_kraus_operators_are_read_only():
    # channels are built from the operators and labels when first read; replacing
    # them after the completeness check used to split the routes without an
    # error, and the name, dimension and labels are read-only like the operators
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=2, local_dim=2, seed=3))
    m = a.test.measurements[0]
    before = (m.name, m.dim, m.spectrum, m.kraus)
    replacements = {
        "kraus": MappingProxyType({lab: 0 * np.eye(2) for lab in m.spectrum}),
        "spectrum": m.spectrum[:1],
        "dim": 3,
        "name": "other",
    }
    for field, value in replacements.items():
        with pytest.raises(AttributeError):
            setattr(m, field, value)
    with pytest.raises(TypeError):
        m.kraus[m.spectrum[0]] = 0 * np.eye(2)
    with pytest.raises(ValueError):
        m.kraus[m.spectrum[0]][0, 0] = 0.0
    assert all(now is then for now, then in zip((m.name, m.dim, m.spectrum, m.kraus), before))
    assert pr_test_marginal(a, (1,)) == pytest.approx(enumerate_probability(a, (1,)), abs=1e-12)


def test_event_forms_and_outcomes():
    m = computational_measurement(3, "Z3")
    ev = Event(m, ["2", "0"])
    assert ev.sorted_outcomes() == ["0", "2"]
    assert ev.outcomes == {"0", "2"}
    assert complete_event(m).outcomes == set(m.spectrum)
    assert empty_event(m).outcomes == frozenset()


def test_event_rejects_stray_outcomes():
    m = computational_measurement(2)
    with pytest.raises(ValidationError):
        Event(m, ["7"])


def test_event_needs_a_measurement():
    with pytest.raises(ValidationError, match="Measurement"):
        Event(None, frozenset({"0"}))


def test_complement_and_union():
    m = computational_measurement(3)
    ev = Event(m, ["0"])
    assert complement(ev).sorted_outcomes() == ["1", "2"]
    assert union(ev, Event(m, ["2"])).sorted_outcomes() == ["0", "2"]
    other = computational_measurement(3, "Other")
    with pytest.raises(DifferentMeasurementsError):
        union(ev, Event(other, ["1"]))


def test_complete_event_dephases_but_keeps_trace():
    # the full-spectrum map is not the identity map: coherences vanish
    m = computational_measurement(2)
    rho = plus_state()
    out = super_operator_of(complete_event(m))(rho.matrix)
    assert np.allclose(out, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    assert np.trace(out).real == pytest.approx(np.trace(rho.matrix).real)


def test_empty_event_super_operator_annihilates():
    m = computational_measurement(2)
    out = super_operator_of(empty_event(m))(plus_state().matrix)
    assert np.allclose(out, 0.0)


def test_super_operator_sums_selected_branches():
    m = computational_measurement(2)
    s = super_operator_of(Event(m, ["1"]))
    assert isinstance(s, SuperOperator)
    rho = validate_density([[0.25, 0.0], [0.0, 0.75]])
    out = s(rho.matrix)
    assert np.allclose(out, [[0.0, 0.0], [0.0, 0.75]], atol=1e-12)
    assert np.trace(out).real == pytest.approx(0.75)


def test_parse_event_expr_forms():
    assert parse_event_expr("M2=0") == (2, frozenset(["0"]))
    assert parse_event_expr("M1 in {a, b}") == (1, frozenset(["a", "b"]))
    assert parse_event_expr("M3 in {}") == (3, frozenset())
    assert parse_event_expr("full(M4)") == (4, "full")
    assert parse_event_expr(" empty( M10 ) ") == (10, "empty")


def test_parse_event_expr_rejects_garbage():
    for text in ("M0.5=1", "M2", "in {a}", "M2 in {a,,b}", "full(X1)"):
        with pytest.raises(ParseError):
            parse_event_expr(text)


@pytest.mark.parametrize("form", ["M{}=0", "M{} in {{0}}", "full(M{})"])
def test_parse_event_expr_refuses_an_index_past_the_printable_digits(form):
    # int() refuses more than 4300 digits with a raw ValueError
    with pytest.raises(ParseError, match="^an event expression names a measurement index of 5000 digits$"):
        parse_event_expr(form.format("1" * 5000))


def test_parse_event_seq_splits_on_semicolons():
    parsed = parse_event_seq("M1=1; M2 in {0,1} ;full(M3)")
    assert parsed == [
        (1, frozenset(["1"])),
        (2, frozenset(["0", "1"])),
        (3, "full"),
    ]


# Site-local channels: a measurement whose operators are all exactly
# I_l (x) k (x) I_r applies its channels on the middle factor only.

_PRODUCT_SHAPES = [
    (GeneratorKind.TENSOR_PRODUCT, 3, 2, 1),
    (GeneratorKind.TENSOR_PRODUCT, 2, 3, 1),
    (GeneratorKind.TENSOR_PRODUCT, 3, 3, 1),
    (GeneratorKind.TENSOR_PRODUCT, 6, 2, 1),
    (GeneratorKind.SLIDING_WINDOW, 3, 2, 2),
    (GeneratorKind.SLIDING_WINDOW, 2, 3, 2),
    (GeneratorKind.SLIDING_WINDOW, 5, 2, 2),
    (GeneratorKind.SLIDING_WINDOW, 3, 2, 3),
]


def _product_instance(kind, n, local_dim, window, seed=5):
    return generate(GeneratorSpec(kind=kind, n=n, local_dim=local_dim, window=window, seed=seed))


@pytest.mark.parametrize("kind, n, local_dim, window", _PRODUCT_SHAPES)
def test_product_families_find_their_identity_factors(kind, n, local_dim, window):
    a = _product_instance(kind, n, local_dim, window)
    sites = n + window - 1
    expected = [(local_dim ** (i - 1), local_dim ** (sites - i - window + 1)) for i in range(1, n + 1)]
    assert [m._window for m in a.test.measurements] == expected
    for i, m in enumerate(a.test.measurements, start=1):
        for channel in (m._complete, a.event(i)._hit, a.event(i)._miss):
            assert channel.window == m._window


_SINGLE_SPACE_KINDS = [
    k for k in GeneratorKind if k not in (GeneratorKind.TENSOR_PRODUCT, GeneratorKind.SLIDING_WINDOW)
]


@pytest.mark.parametrize("kind", _SINGLE_SPACE_KINDS)
@pytest.mark.parametrize("local_dim", [2, 3, 4])
def test_single_space_families_find_no_identity_factor(kind, local_dim):
    a = generate(GeneratorSpec(kind=kind, n=3, local_dim=local_dim, seed=2))
    assert [m._window for m in a.test.measurements] == [(1, 1)] * a.n


def test_identity_factors_are_exact():
    # one ulp on a diagonal-block entry, or the least subnormal off the blocks,
    # leaves no identity factor: the comparison has no tolerance
    a = _product_instance(GeneratorKind.TENSOR_PRODUCT, 3, 2, 1)
    for m in a.test.measurements:
        entry = m.kraus[m.spectrum[0]][0, 0]
        for row, col, value in ((0, 0, complex(np.nextafter(entry.real, 2.0), entry.imag)), (0, m.dim - 1, 5e-324)):
            ops = {label: np.array(op) for label, op in m.kraus.items()}
            ops[m.spectrum[0]][row, col] = value
            assert Measurement(m.name, ops)._window == (1, 1), (m.name, row, col)
    # a multiple of the identity is all left factor
    assert Measurement("I", {"0": np.eye(6)})._window == (6, 1)


def _dense(channel: SuperOperator) -> SuperOperator:
    return dataclasses.replace(channel, window=(1, 1))


@pytest.mark.parametrize("kind, n, local_dim, window", _PRODUCT_SHAPES)
def test_window_route_matches_the_dense_loop(kind, n, local_dim, window):
    # a generic non-Hermitian sigma of unit norm, so a dropped conjugate or a
    # transposed block shows, and 1e-12 is an absolute bound
    a = _product_instance(kind, n, local_dim, window)
    rng = np.random.default_rng(n * local_dim * window)
    d = a.test.rho.dim
    sigma = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sigma /= np.linalg.norm(sigma)
    for i, m in enumerate(a.test.measurements, start=1):
        for channel in (m._complete, a.event(i)._hit, a.event(i)._miss, super_operator_of(empty_event(m))):
            assert channel.window == m._window != (1, 1)
            assert np.abs(channel(sigma) - _dense(channel)(sigma)).max() <= 1e-12
            assert channel.trace_of(sigma) == _dense(channel).trace_of(sigma)


@pytest.mark.parametrize("kind", [GeneratorKind.TENSOR_PRODUCT, GeneratorKind.SLIDING_WINDOW])
def test_a_reloaded_instance_gives_the_same_profile(kind):
    a = _product_instance(kind, 4, 2, 2)
    _, b, _ = loads(dumps(a))
    assert [m._window for m in b.test.measurements] == [m._window for m in a.test.measurements]
    assert compute_profile(b) == compute_profile(a)


def test_a_profiled_instance_is_freed_by_reference_counting():
    # a channel that held its measurement would make a cycle through
    # Measurement._complete, and each instance would wait for the collector
    gc.collect()
    gc.disable()
    try:
        a = _product_instance(GeneratorKind.SLIDING_WINDOW, 3, 2, 2)
        profile = compute_profile(a)
        refs = [weakref.ref(a), weakref.ref(profile)]
        for i, m in enumerate(a.test.measurements, start=1):
            refs += [weakref.ref(m), weakref.ref(m._complete), weakref.ref(a.event(i)), weakref.ref(a.event(i)._hit)]
        del a, profile, m
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _effect_instances():
    # build_pool(40) with its complemented and zero-denominator variants, and
    # the d=64 tensor-product and sliding-window shapes of the search
    for a in build_pool(40):
        yield a
        yield complemented(a, a.assigned())
        yield a.with_event(1, empty_event(a.test.measurements[0]))
    for seed in (1, 2):
        yield generate(GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=6, local_dim=2, seed=seed))
        yield generate(GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=5, local_dim=2, window=2, seed=seed))


def test_effects_sum_the_measurement_products_to_the_bit():
    # each effect adds the products its measurement formed once, in spectrum
    # order from zeros, so it equals the sum of freshly formed K^dagger K
    for a in _effect_instances():
        for i, m in enumerate(a.test.measurements, start=1):
            for channel in (m._complete, a.event(i)._hit, a.event(i)._miss, super_operator_of(empty_event(m))):
                fresh = sum((k.conj().T @ k for k in channel.kraus), np.zeros((m.dim, m.dim), dtype=np.complex128))
                assert same_bits(channel._effect, fresh), (a, i)


def _counted_peels(monkeypatch) -> list[tuple[int, bool]]:
    """``(q, left)`` of every `_peel` call made from now on."""
    calls, original = [], events._peel

    def counting(k, p, left):
        calls.append((p, left))
        return original(k, p, left)

    monkeypatch.setattr(events, "_peel", counting)
    return calls


@pytest.mark.parametrize("kind, n, local_dim, window", _PRODUCT_SHAPES)
def test_generated_operators_take_one_peel_per_prime_and_side(monkeypatch, kind, n, local_dim, window):
    # the first divisor tried on each side, the largest its bound allows, is exact
    a = _product_instance(kind, n, local_dim, window)
    calls = _counted_peels(monkeypatch)
    for m in a.test.measurements:
        calls.clear()
        assert events._identity_factors(list(m.kraus.values()), m.dim) == m._window
        l, r = m._window  # each dimension here is a power of one prime
        assert calls == [(q, left) for q, left in ((l, True), (r, False)) if q > 1], m.name


def test_a_peel_that_fails_steps_down_to_the_largest_exact_power(monkeypatch):
    # I_2 (x) k with column 0 of k zero below row 0, so the bound allows q=8:
    # 8 and 4 fail, 2 peels; no right factor splits off k
    v = np.array([0.0, 1.0, 2.0, 2.0]) / 3
    p = np.outer(np.eye(4)[0], np.eye(4)[0]) + np.outer(v, v)
    ops = [np.kron(np.eye(2), p), np.kron(np.eye(2), np.eye(4) - p)]
    calls = _counted_peels(monkeypatch)
    assert events._identity_factors(ops, 8) == (2, 1)
    assert calls == [(8, True), (4, True), (2, True), (2, False)]
    calls.clear()
    assert Measurement("M", {"0": ops[0], "1": ops[1]})._window == (2, 1)
    assert calls == [(8, True), (4, True), (2, True), (2, False)]


def _reference_factors(ops, dim: int) -> tuple[int, int]:
    """The largest l, then the largest r, such that np.kron rebuilds every operator in *ops* as I_l (x) k (x) I_r."""
    def rebuilds(l, r):
        w = dim // (l * r)
        return all(
            np.array_equal(np.kron(np.kron(np.eye(l), op[: w * r : r, : w * r : r]), np.eye(r)), op) for op in ops
        )

    divisors = [q for q in range(1, dim + 1) if dim % q == 0]
    l = max(q for q in divisors if rebuilds(q, 1))
    return l, max(q for q in divisors if (dim // l) % q == 0 and rebuilds(l, q))


def _middle(kind: str, rng, w: int) -> np.ndarray:
    if kind == "dense":
        return rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    if kind == "diagonal":
        return np.diag(rng.standard_normal(w) + 1j * rng.standard_normal(w))
    k = np.zeros((w, w))
    k[rng.integers(w), rng.integers(w)] = 1.5
    return k


@pytest.mark.parametrize("middle", ["dense", "diagonal", "one-entry"])
@pytest.mark.parametrize("dim", [6, 12, 18, 24, 36, 48, 60])
def test_composite_dimensions_find_the_largest_identity_factors(dim, middle):
    # every split I_l (x) k (x) I_r of a dimension with several primes, over a
    # stack of two middle factors of one kind
    rng = np.random.default_rng(dim)
    divisors = [q for q in range(1, dim + 1) if dim % q == 0]
    for l in divisors:
        for r in (q for q in divisors if (dim // l) % q == 0):
            w = dim // (l * r)
            ops = [np.kron(np.kron(np.eye(l), _middle(middle, rng, w)), np.eye(r)) for _ in range(2)]
            expected = _reference_factors(ops, dim)
            assert events._identity_factors(ops, dim) == expected, (l, r)
            if middle == "dense":  # a dense middle factor splits no identity off
                assert expected == ((l, r) if w > 1 else (dim, 1))


def test_channels_keep_the_spectrum_order():
    # an event's outcomes are a set; sorted_outcomes and every channel built
    # from it follow the order the measurement declared them in
    m = Measurement("M", {"b": np.diag([1.0, 0, 0]), "c": np.diag([0, 1.0, 0]), "a": np.diag([0, 0, 1.0])})
    event = Event(m, ["a", "b"])
    assert event.sorted_outcomes() == ["b", "a"]
    channel = super_operator_of(event)
    assert channel.kraus == (m.kraus["b"], m.kraus["a"])
    assert channel.products == (m._products["b"], m._products["a"])


def _kraus_loop(channel: SuperOperator, sigma: np.ndarray) -> np.ndarray:
    """The reference a dense channel must match bit for bit: one term per K_m, added in spectrum order from zeros."""
    out = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for k in channel.kraus:
        out += k @ sigma @ k.conj().T
    return out


def _generic_state(rng, dim: int) -> np.ndarray:
    # non-Hermitian, so a transpose without its conjugate shows on any complex K_m
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_dense_pool_channels_match_the_kraus_loop_to_the_bit():
    # every complete, hit, miss and empty channel of build_pool(40) and its
    # complemented variants, the window ones through the dense route too, on
    # the test's tau before the slot and on a generic state
    rng = np.random.default_rng(40)
    for a in build_pool(40):
        for b in (a, complemented(a, a.assigned())):
            for i, m in enumerate(b.test.measurements, start=1):
                states = (b.test._tau[i - 1], _generic_state(rng, m.dim))
                for channel in (m._complete, b.event(i)._hit, b.event(i)._miss, super_operator_of(empty_event(m))):
                    for sigma in states:
                        assert same_bits(_dense(channel)(sigma), _kraus_loop(channel, sigma)), (b, i)


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
def test_dense_povm_channels_match_the_kraus_loop_to_the_bit(dim):
    # up to 12 outcomes: at d=1 np.add.reduce would switch to pairwise sums
    rng = np.random.default_rng(dim)
    for k in (2, 3, 8, 12):
        m = random_povm_measurement(dim, k, rng, "M")
        sigma = _generic_state(rng, dim)
        for outcomes in (m.spectrum, m.spectrum[:1], m.spectrum[1 : k // 2 + 1], ()):
            channel = super_operator_of(Event(m, outcomes))
            assert channel.window == (1, 1)
            assert same_bits(channel(sigma), _kraus_loop(channel, sigma)), (k, outcomes)


def test_a_negative_zero_in_the_first_term_is_summed_from_positive_zeros():
    # the first term reads -0.0 at (0, 1); added to +0.0 it gives +0.0, as the
    # loop does, where a sum seeded with that term would keep the -0.0
    k = np.array([[1, complex(-0.0, -1)], [-2 - 1j, complex(-0.0, -1)]])
    sigma = np.array([[-1 - 1j, complex(-0.0, 0)], [1j, -1]])
    assert np.signbit((k @ sigma @ k.conj().T)[0, 1].real)
    for count in (1, 2):
        channel = SuperOperator(kraus=(k,) * count, dim=2, products=(k.conj().T @ k,) * count)
        out = channel(sigma)
        assert same_bits(out, _kraus_loop(channel, sigma)) and not np.signbit(out[0, 1].real)


def test_a_dense_channel_stacks_its_operators_once():
    channel = computational_measurement(3)._complete
    channel(np.eye(3) / 3)
    stack, adjoints = channel._stacks
    channel(np.eye(3) / 3)
    assert channel._stacks[0] is stack and channel._stacks[1] is adjoints
    assert not stack.flags.writeable and not adjoints.flags.writeable
