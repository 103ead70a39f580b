import hashlib
import importlib
import json
import re
import time

import numpy as np
import pytest

from helpers import complemented, pool_spec, rarefy_events, same_bits
from qlll.errors import ConditionOnZeroError, DimensionCapError, ValidationError
from qlll.events import Measurement, complete_event
from qlll.generate import (
    MAX_KRAUS_ENTRIES,
    _READS,
    GeneratorKind,
    GeneratorSpec,
    _drop_outcome,
    _kron,
    generate,
    generate_assumption_satisfying,
    random_povm_measurement,
    random_projective_measurement,
    worked_examples,
)
from qlll import independence
from qlll.independence import _PrefixWalk, compute_profile
from qlll.linalg import DEFAULT_TOL
from qlll.lll import LLLInstance, check_general
from qlll.probability import _test_cond, pr_test_marginal
from qlll.serialize import dumps

RANDOM_KINDS = (
    GeneratorKind.TENSOR_PRODUCT,
    GeneratorKind.SLIDING_WINDOW,
    GeneratorKind.RANDOM_PROJECTIVE,
    GeneratorKind.RANDOM_POVM,
    GeneratorKind.DEPENDENT_CHAIN,
)

EXPECTED_CHECKS = {
    "reordering": (0.25, 0.0),
    "marginal-vs-state": (1.0, 0.5, 0.0, 0.5, 0.5),
    "conditional-reversal": (0.25, 0.0),
    "total-probability-failure": (0.0, 0.25),
    "independence-reading": (0.5, 0.5),
}


def test_worked_examples_all_pass():
    examples = worked_examples()
    assert [ex.name for ex in examples] == list(EXPECTED_CHECKS)
    assert sum(len(ex.checks) for ex in examples) == 13
    for ex in examples:
        for check in ex.checks:
            assert check.passed, (ex.name, check.label)
            assert check.actual == pytest.approx(check.expected, abs=1e-9)
        doc = ex.to_json()
        assert doc["all_pass"] is True
        assert doc["name"] == ex.name
        assert [c["expected"] for c in doc["checks"]] == [c.expected for c in ex.checks]


def test_worked_examples_frozen_expected_values():
    for ex in worked_examples():
        assert tuple(c.expected for c in ex.checks) == EXPECTED_CHECKS[ex.name]


@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_generation_is_seed_deterministic(kind):
    spec = GeneratorSpec(kind=kind, n=3, local_dim=2, seed=42)
    assert dumps(generate(spec)) == dumps(generate(spec))
    other = GeneratorSpec(kind=kind, n=3, local_dim=2, seed=43)
    assert dumps(generate(other)) != dumps(generate(spec))


def test_reference_kind_ignores_seed():
    a = generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES, seed=0))
    b = generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES, seed=99))
    assert dumps(a) == dumps(b)


@pytest.mark.parametrize("kind", RANDOM_KINDS)
def test_generated_instances_are_well_formed(kind):
    spec = GeneratorSpec(kind=kind, n=3, local_dim=2, window=2, seed=7)
    a = generate(spec)
    assert a.n == 3
    assert a.assigned() == (1, 2, 3)
    for i in a.assigned():
        ev = a.event(i)
        assert ev.outcomes
        assert ev.outcomes != set(ev.measurement.spectrum)
    for m in a.test.measurements:
        assert 2 <= len(m.spectrum) <= 4  # window kind squares the local size
    expected_dim = {
        GeneratorKind.TENSOR_PRODUCT: 2**3,
        GeneratorKind.SLIDING_WINDOW: 2**4,
        GeneratorKind.RANDOM_PROJECTIVE: 2,
        GeneratorKind.RANDOM_POVM: 2,
        GeneratorKind.DEPENDENT_CHAIN: 2,
    }[kind]
    assert a.test.rho.dim == expected_dim


def test_random_spectra_stay_small():
    for seed in range(6):
        spec = GeneratorSpec(
            kind=GeneratorKind.RANDOM_POVM, n=4, local_dim=4, seed=seed
        )
        for m in generate(spec).test.measurements:
            assert 2 <= len(m.spectrum) <= 3


def test_outcomes_knob():
    fixed = GeneratorSpec(
        kind=GeneratorKind.RANDOM_PROJECTIVE, n=2, local_dim=3, seed=1, outcomes=3
    )
    for m in generate(fixed).test.measurements:
        assert len(m.spectrum) == 3
    impossible = GeneratorSpec(
        kind=GeneratorKind.RANDOM_PROJECTIVE, n=2, local_dim=2, seed=1, outcomes=3
    )
    with pytest.raises(ValidationError, match="impossible"):
        generate(impossible)


def test_spec_validation():
    with pytest.raises(ValidationError):
        GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=0)
    with pytest.raises(ValidationError):
        GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, local_dim=1)
    with pytest.raises(ValidationError):
        GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, window=0)
    with pytest.raises(ValidationError):
        GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, outcomes=1)
    coerced = GeneratorSpec(kind="tensor-product")
    assert coerced.kind is GeneratorKind.TENSOR_PRODUCT
    # a typed error, so a library caller can catch it as QlllError
    with pytest.raises(ValidationError, match="unknown generator kind 'no-such-kind'; the kinds are paper-examples, "):
        GeneratorSpec(kind="no-such-kind")


def test_spec_rejects_negative_seed():
    # numpy's default_rng would refuse it later with a bare ValueError
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, seed=-1)


@pytest.mark.parametrize("field", ["n", "local_dim", "window", "seed", "outcomes"])
def test_spec_fields_must_be_integers(field):
    # n=True used to build n = 1, and n=2.5 or outcomes=2.5 ended in a bare
    # TypeError; outcomes=None is the seeded spectrum size, not a bad value
    bads = [2.5, True, np.True_, "3"] + ([] if field == "outcomes" else [None])
    for bad in bads:
        with pytest.raises(ValidationError, match=f"{field} {re.escape(repr(bad))} is not an integer"):
            GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, **{field: bad})
    spec = GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, **{field: np.int64(3)})
    assert spec == GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, **{field: 3})
    assert type(getattr(spec, field)) is int


# every spec field, at a base value and at one that changes any family reading it;
# local_dim=3 lets outcomes=2 differ from the seeded spectrum size
READ_BASE = dict(n=2, local_dim=3, window=1, seed=5, outcomes=None)
READ_VARIED = dict(n=3, local_dim=2, window=2, seed=6, outcomes=2)


@pytest.mark.parametrize("kind", list(GeneratorKind), ids=lambda k: k.value)
def test_read_table_matches_behaviour(kind):
    base = dumps(generate(GeneratorSpec(kind=kind, **READ_BASE)))
    for field, value in READ_VARIED.items():
        varied = dumps(generate(GeneratorSpec(kind=kind, **{**READ_BASE, field: value})))
        assert (varied != base) == (field in _READS[kind]), field


@pytest.mark.parametrize("draw, k, message", [
    (random_projective_measurement, 1, "need 2 <= outcomes <= dim, got 1 with dim 3"),
    (random_projective_measurement, 4, "need 2 <= outcomes <= dim, got 4 with dim 3"),
    (random_povm_measurement, 1, "need at least 2 outcomes, got 1"),
], ids=["projective-1", "projective-4", "povm-1"])
def test_a_direct_draw_refuses_an_impossible_outcome_count(draw, k, message):
    # generate() refuses these counts in its spec; the draws check them again for direct callers
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        draw(3, k, np.random.default_rng(0), "M")


def test_sliding_window_label_check_comes_before_the_dimension_cap():
    # 10**3 exceeds the dimension cap, but the label limit is what is reported
    spec = GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=2, local_dim=10, window=2, seed=0)
    with pytest.raises(ValidationError, match="local_dim <= 9") as exc:
        generate(spec)
    assert exc.value.code == "Validation"


@pytest.mark.parametrize("kind", [GeneratorKind.TENSOR_PRODUCT, GeneratorKind.SLIDING_WINDOW], ids=lambda k: k.value)
def test_a_huge_site_count_is_refused_without_forming_its_dimension(kind, monkeypatch):
    # 2**(10**9) would be a 125 MB integer, too long to print in the message
    monkeypatch.delenv("QLLL_DIM_CAP", raising=False)
    spec = GeneratorSpec(kind=kind, n=10**9, window=1, seed=0)
    with pytest.raises(DimensionCapError, match="^local_dim 2 on 1000000000 sites exceeds the cap 64 ") as exc:
        generate(spec)
    assert exc.value.detail == {"dim": 2, "sites": 10**9, "cap": 64}


@pytest.mark.parametrize("field", ["n", "outcomes"])
def test_a_huge_single_space_spec_is_refused_before_any_draw(field, monkeypatch):
    # one measurement per slot, or a billion operators in one, would be drawn for hours
    monkeypatch.delenv("QLLL_DIM_CAP", raising=False)
    spec = GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, seed=0, **{field: 10**9})
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"above the limit {MAX_KRAUS_ENTRIES}$") as exc:
        generate(spec)
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == "Validation"


def test_the_kraus_entry_limit_sits_well_above_the_largest_family_in_use():
    # search-d64's sliding-window family holds 5 slots x 4 outcomes x 64**2 entries
    spec = GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=5, local_dim=2, window=2, seed=0)
    a = generate(spec)
    entries = sum(len(m.kraus) * m.dim**2 for m in a.test.measurements)
    assert entries == 81_920 and 100 * entries < MAX_KRAUS_ENTRIES


def test_rarefy_caps_every_marginal():
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=3, local_dim=3, seed=9))
    cap = 0.2
    rare = rarefy_events(a, cap, np.random.default_rng(0))
    for i in rare.assigned():
        assert pr_test_marginal(rare, (i,)) <= cap + 1e-12
    # already-capped assignments come back unchanged
    assert rarefy_events(rare, cap, np.random.default_rng(1)) is rare


@pytest.mark.parametrize("cap", [-0.1, float("nan"), 1.5, float("inf")])
def test_rarefy_refuses_a_cap_outside_the_unit_interval(cap):
    # a negative or NaN cap used to empty every event and then fail inside numpy
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=3, local_dim=3, seed=9))
    with pytest.raises(ValidationError, match=r"is not a probability in \[0, 1\]"):
        rarefy_events(a, cap, np.random.default_rng(0))


def test_assumption_satisfying_generation():
    spec = GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=3, local_dim=3, seed=3)
    inst, rejections = generate_assumption_satisfying(spec, (0.3, 0.3, 0.3))
    assert rejections >= 0
    report = check_general(inst)
    assert all(report.assumption_ok)
    assert report.bound_ok


def _reference_search(spec, x, tol=DEFAULT_TOL):
    """The search as a whole check per candidate: drop at the first failing row."""
    a = generate(spec)
    rng = np.random.default_rng(spec.seed + 7919)
    rejections = 0
    while True:
        inst = LLLInstance(a, tuple(x))
        failing = [r for r in check_general(inst, tol).assumption_rows if not r["ok"]]
        if not failing:
            return inst, rejections
        rejections += 1
        a = _drop_outcome(a, failing[0]["i"], rng)


def _search_outcome(inst, rejections):
    a = inst.assignment
    return rejections, inst.x, sorted((i, e.sorted_outcomes()) for i, e in a.events.items())


SEARCH_WEIGHTS = (
    lambda n: (0.3,) * n,
    lambda n: (0.5,) * n,
    lambda n: (0.2, 0.6, 0.35, 0.45)[:n],
)


def test_row_by_row_search_matches_whole_checks():
    for t in range(40):
        spec = pool_spec(t)
        for weights in SEARCH_WEIGHTS:
            x = weights(spec.n)
            got = _search_outcome(*generate_assumption_satisfying(spec, x))
            assert got == _search_outcome(*_reference_search(spec, x)), (t, x)


# pool specs have n <= 4; these carry prefix states through up to eleven slots,
# and the tensor product and the sliding window run at dimension 64
DEEP_SEARCHES = (
    (GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=8, local_dim=3, seed=11), 0.3),
    (GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=8, local_dim=3, seed=12), 0.5),
    (GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=12, local_dim=3, seed=14), 0.3),
    (GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=8, local_dim=3, seed=15), 0.5),
    (GeneratorSpec(kind=GeneratorKind.DEPENDENT_CHAIN, n=12, local_dim=2, seed=16), 0.3),
    (GeneratorSpec(kind=GeneratorKind.DEPENDENT_CHAIN, n=12, local_dim=2, seed=17), 0.5),
    (GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=6, local_dim=2, seed=18), 0.3),
    (GeneratorSpec(kind=GeneratorKind.SLIDING_WINDOW, n=5, local_dim=2, window=2, seed=19), 0.7),
)


def test_deep_search_matches_whole_checks():
    for spec, x in DEEP_SEARCHES:
        got = _search_outcome(*generate_assumption_satisfying(spec, (x,) * spec.n))
        assert got == _search_outcome(*_reference_search(spec, (x,) * spec.n)), spec


def _leading_variants(a):
    # a complete event at slot j leaves every prefix through j conditioning on zero
    return (a, complemented(a, a.assigned())) + tuple(
        a.with_event(j, complete_event(a.test.measurements[j - 1])) for j in range(1, a.n)
    )


def test_leading_independent_prefix_is_the_profile_s(monkeypatch):
    # the walk decides the same floats as the per-pair route: each marginal and
    # each conditional it votes on equals a fresh walk from rho, bit for bit
    decided, decide = [], independence._decide

    def recording(lhs, rhs, tol):
        decided.append((lhs, rhs))
        return decide(lhs, rhs, tol)

    monkeypatch.setattr(independence, "_decide", recording)
    for t in range(40):
        for a in _leading_variants(generate(pool_spec(t))):
            walk, got = _PrefixWalk(a), []
            for k in range(1, a.n + 1):
                decided.clear()
                marginal, s_k = walk.row(a, DEFAULT_TOL)
                got.append(s_k)
                assert marginal == pr_test_marginal(a, (k,)), t
                prefixes = (tuple(range(1, l + 1)) for l in range(1, len(decided) + 1))
                fresh = [_test_cond(a, K, (k,), True, DEFAULT_TOL) for K in prefixes]
                assert decided == [(conditional, marginal) for conditional in fresh], t
                if k < a.n:
                    walk.advance(a)
            assert tuple(got) == compute_profile(a).s, t


def test_walk_reads_in_any_order_match_the_per_pair_route():
    # each state is carried lazily, so reading the pairs of a slot in any order,
    # past the first False too, must give the floats of a fresh walk from rho
    rng = np.random.default_rng(16)
    for t in range(40):
        for a in _leading_variants(generate(pool_spec(t))):
            walk = _PrefixWalk(a)
            for i in range(1, a.n + 1):
                for l in rng.permutation(i + 1).tolist():
                    if l == i:
                        assert walk.marginal(a, DEFAULT_TOL) == pr_test_marginal(a, (i,)), t
                        continue
                    try:
                        expected = _test_cond(a, tuple(range(1, l + 1)), (i,), True, DEFAULT_TOL)
                    except ConditionOnZeroError:
                        expected = None
                    assert walk.conditional(a, l, DEFAULT_TOL) == expected, (t, i, l)
                walk.advance(a)
            every = tuple(range(1, a.n + 1))
            assert walk.avoided(DEFAULT_TOL) == pr_test_marginal(complemented(a, every), every), t


# Construction bits: SHA-256 digests of every generator kind's instances,
# search results and rarefied assignments.  A change in RNG draw order, event
# construction or the search's drop step shows up here; a numpy/BLAS build
# whose QR or eigen decompositions differ in the last bit changes them too.
PIN_SEEDS = (0, 1, 2)
PIN_SHAPES = (
    dict(n=3, local_dim=2, window=2, outcomes=None),
    dict(n=3, local_dim=3, window=1, outcomes=2),
    dict(n=4, local_dim=2, window=2, outcomes=2),
)


def _events_text(a):
    return json.dumps([[i, a.event(i).sorted_outcomes()] for i in a.assigned()])


def _construction_digests(kind):
    parts = {"instance": hashlib.sha256(), "search": hashlib.sha256(), "rarefy": hashlib.sha256()}
    for shape in PIN_SHAPES:
        for seed in PIN_SEEDS:
            spec = GeneratorSpec(kind=kind, seed=seed, **shape)
            a = generate(spec)
            parts["instance"].update(dumps(a).encode())
            inst, rejections = generate_assumption_satisfying(spec, (0.3,) * a.n)
            parts["search"].update(f"{rejections}:{_events_text(inst.assignment)};".encode())
            rare = rarefy_events(a, 0.2, np.random.default_rng(seed))
            parts["rarefy"].update(_events_text(rare).encode())
    return {name: h.hexdigest() for name, h in parts.items()}


CONSTRUCTION_DIGESTS = {
    GeneratorKind.PAPER_EXAMPLES: {
        "instance": "605d1a81217f46edfb4695a15d5aa50e671f90b67ce2571e52345c6749d75e4f",
        "search": "5389035ff4f4e2960d698e68be3ec5180eb741a2402265849fdd6627c3420704",
        "rarefy": "2bf0a2330433c7ec7d5b18f97ae6fe6d2031f5c28f1becea2d6b98a242c4d4f3",
    },
    GeneratorKind.TENSOR_PRODUCT: {
        "instance": "628587a408d11de11148afa7c588c217cde95139fb43d7a72b5df96a606784a2",
        "search": "a7df87660d83fdfdcc64577f02d6ce6ac8c07c31bbc2524691b2c8a633bf2bf8",
        "rarefy": "ad9d6c8dda68f8e452f9815158c5dbd68e37c5ada7d2ba30901d18771fb2f3e8",
    },
    GeneratorKind.SLIDING_WINDOW: {
        "instance": "ef5820b3abfbd62348d22551996c93f6f4fbbac52a7cc37d40a683801184984a",
        "search": "059acb53098f606c409ee75447c07fa31fa5af8571304efaace53408765793f8",
        "rarefy": "2e716ae49a61257b1138557e83a2351d77738f716d627d613833f18abb048ab1",
    },
    GeneratorKind.RANDOM_PROJECTIVE: {
        "instance": "d782efbaba1075ceabb2a35652dc541070b0564f4f0815332122eccf77fc3775",
        "search": "edf02510ab8fce0fcf681ca0b81004b584518b9690927145ba4592e174862778",
        "rarefy": "759cd092ded1819aa6063fb6135dd430fc4d6111af562daa3b941de49f86dd6f",
    },
    GeneratorKind.RANDOM_POVM: {
        "instance": "d014f7ed015e337be38c9a6f717871eba22402b128caff79d12c71c22819ed86",
        "search": "16bb9ccf2d537d5904069c390254efecb65dd0283229dd858c1fad78d77a6979",
        "rarefy": "dadfe95a8dd69e73f27ef8fe896ecfb5015bfcb7c1089e5760f682178ac4b837",
    },
    GeneratorKind.DEPENDENT_CHAIN: {
        "instance": "a2481a0c45d41b14d4c9f17736677ef111e09126168569a9e1e3bc6d7dea4e9c",
        "search": "ea21266624228712da74f68e6042c3849b882494738fdecde32060fb70ffc804",
        "rarefy": "1c8fd0eb7625c0c68ff669b59f5d45bc5ec823b03783e1ac719ff07ec7065225",
    },
}


@pytest.mark.parametrize("kind", list(GeneratorKind), ids=lambda k: k.value)
def test_construction_bits_are_pinned(kind):
    assert _construction_digests(kind) == CONSTRUCTION_DIGESTS[kind]


def test_a_tensor_product_instance_builds_one_measurement_per_slot_and_validates_one_state(monkeypatch):
    # the local projectors are embedded without a local Measurement, and the
    # site states are drawn without validate_density: only the product is checked
    module = importlib.import_module("qlll.generate")  # qlll.generate names the function
    built, validated = [], []
    measurement_init, validate = Measurement.__post_init__, module.validate_density

    def counting_init(self):
        built.append(self)
        measurement_init(self)

    def counting_validate(matrix, *args, **kwargs):
        validated.append(matrix)
        return validate(matrix, *args, **kwargs)

    monkeypatch.setattr(Measurement, "__post_init__", counting_init)
    monkeypatch.setattr(module, "validate_density", counting_validate)
    a = generate(GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=6, local_dim=2, seed=1))
    assert len(built) == 6 and all(m.dim == 64 for m in built)
    assert len(validated) == 1 and np.array_equal(validated[0], a.test.rho.matrix)


def test_kron_helper_makes_the_products_of_np_kron():
    # real x complex as _embed does, complex x complex as _window_slot and
    # _product_state do, and 1 x 1 factors, signed zeros included
    rng = np.random.default_rng(3)

    def draw(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        z[0, 0] = complex(-0.0, 0.0)
        return z

    one, minus_zero = np.array([[1.0 + 0j]]), np.array([[complex(-0.0, -0.0)]])
    pairs = [
        (np.eye(4), draw(2, 2)),
        (np.kron(np.eye(2), draw(2, 2)), np.eye(8)),
        (draw(2, 2), draw(3, 3)),
        (-np.eye(3), draw(2, 3)),
        (one, draw(2, 2)),
        (draw(2, 2), one),
        (one, minus_zero),
        (np.array([[-0.0]]), draw(1, 1)),
    ]
    for a, b in pairs:
        assert same_bits(_kron(a, b), np.kron(a, b)), (a, b)
