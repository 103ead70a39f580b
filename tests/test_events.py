import gc
import weakref
from types import MappingProxyType

import numpy as np
import pytest

from helpers import build_pool
from qlll.errors import (
    DifferentMeasurementsError,
    DimensionMismatchError,
    NotCompleteError,
    ParseError,
    ValidationError,
)
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
    return SuperOperator(channel.kraus, channel.dim)


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
