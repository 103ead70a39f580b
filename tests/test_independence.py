import sys

import numpy as np
import pytest

import qlll.events
import qlll.probability
from helpers import build_pool, complemented
from qlll.errors import ConditionOnZeroError, ValidationError
from qlll.events import Event, complete_event
from qlll.generate import GeneratorKind, GeneratorSpec, generate, zx_measurement_pair, plus_state
from qlll.independence import compute_profile, is_independent, is_neg_independent
from qlll.linalg import DEFAULT_TOL
from qlll.lll import LLLInstance, check_general
from qlll.probability import Test, TestEventAssignment, pr_test_cond, pr_test_marginal


def reference():
    return generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES, n=2, seed=0))


def oracle_nind(a, k, l, tol=DEFAULT_TOL.ind):
    """Definition-level re-computation of the (k, l) table entry.

    Uses only the probability layer: condition on the complemented prefix
    of each length up to l and compare against the bare marginal. Folds
    exactly like the implementation is specified to: any False wins, then
    any undefined, else True.
    """
    base = pr_test_marginal(a, (k,))
    states = []
    for j in range(1, l + 1):
        prefix = tuple(range(1, j + 1))
        flipped = complemented(a, prefix)
        try:
            val = pr_test_cond(flipped, prefix, (k,))
        except ConditionOnZeroError:
            states.append(None)
            continue
        states.append(abs(val - base) <= tol)
    if any(s is False for s in states):
        return False
    if any(s is None for s in states):
        return None
    return True


def test_reference_event_reads_as_independent():
    a = reference()
    assert is_independent(a, 2, (1,), (1,))
    assert is_independent(a, 2, (1,))  # J defaults to all of K
    assert pr_test_cond(a, (1,), (2,)) == pytest.approx(0.5, abs=1e-9)
    assert pr_test_marginal(a, (2,)) == pytest.approx(0.5, abs=1e-9)


def test_reference_negative_independence_and_profile():
    a = reference()
    assert is_neg_independent(a, 2, (1,))
    profile = compute_profile(a)
    assert profile.n == 2
    assert profile.s == (0, 1)
    assert profile.d_min == 0
    assert profile.table == {(2, 1): True}


def test_tensor_product_profile_is_fully_independent():
    a = generate(GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=3, local_dim=2, seed=4))
    profile = compute_profile(a)
    assert all(v is True for v in profile.table.values())
    assert profile.d_min == 0
    assert profile.s == tuple(i - 1 for i in range(1, 4))


def test_profile_matches_definition_oracle_on_pool_sample():
    # dual route: table entries recomputed straight from the definition
    for a in build_pool(40):
        profile = compute_profile(a)
        for (k, l), value in profile.table.items():
            assert value == oracle_nind(a, k, l), (k, l)


def test_profile_summary_fields_follow_from_table():
    for a in build_pool(24):
        profile = compute_profile(a)
        n = profile.n
        worst = 0
        for (k, l), value in profile.table.items():
            if value is not True:
                worst = max(worst, k - l)
        assert profile.d_min == worst
        for i in range(1, n + 1):
            # the table is antitone in l, so the largest usable prefix is
            # the longest run of True entries starting at l = 1
            run = 0
            for l in range(1, i):
                if profile.table.get((i, l)) is True:
                    run = l
                else:
                    break
            assert profile.s[i - 1] == run, i


def test_undefined_prefix_counts_as_dependent():
    m1, m2 = zx_measurement_pair()
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: complete_event(m1), 2: Event(m2, ["0"])},
    )
    # complementing the complete event gives a zero-probability condition
    profile = compute_profile(a)
    assert profile.table == {(2, 1): None}
    assert profile.d_min == 1
    assert profile.s == (0, 0)


def test_profile_json_shape():
    doc = compute_profile(reference()).to_json()
    assert doc == {"s": [0, 1], "d_min": 0, "nind_table": [[2, 1, True]]}


def test_query_validation():
    a = reference()
    with pytest.raises(ValidationError):
        is_independent(a, 1, (1,), (1,))  # condition not before target
    with pytest.raises(ValidationError):
        is_independent(a, 2, (1,), (2,))  # J outside K


def test_dependent_chain_has_a_dependent_pair():
    a = generate(GeneratorSpec(kind=GeneratorKind.DEPENDENT_CHAIN, n=3, local_dim=2, seed=2))
    profile = compute_profile(a)
    assert any(v is not True for v in profile.table.values())
    assert profile.d_min >= 1


def test_profile_never_compares_kraus_arrays(monkeypatch):
    # every complemented prefix reuses the test's own measurement objects, so
    # the slot check in TestEventAssignment is settled by identity
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=6, local_dim=3, seed=7))
    calls = []
    original = np.array_equal

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counting)
    compute_profile(a)
    assert calls == []


def test_profile_builds_no_channels_or_assignments(monkeypatch):
    # the test builds its complete channels and each event its hit and miss
    # channels once; the profile and the check only walk them, and they walk
    # the measurements' own Kraus arrays.  Only the check reads hit_1 and miss_n,
    # so one check builds every channel before counting starts.
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=8, local_dim=3, seed=7))
    check_general(LLLInstance(a, (0.5,) * a.n))
    calls = []
    original_of = qlll.events.super_operator_of
    original_init = qlll.probability.TestEventAssignment.__init__

    def counting_of(event):
        calls.append("super_operator_of")
        return original_of(event)

    def counting_init(self, *args, **kwargs):
        calls.append("assignment")
        original_init(self, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("qlll")]:
        if getattr(module, "super_operator_of", None) is original_of:
            monkeypatch.setattr(module, "super_operator_of", counting_of)
    monkeypatch.setattr(qlll.probability.TestEventAssignment, "__init__", counting_init)
    compute_profile(a)
    check_general(LLLInstance(a, (0.5,) * a.n))
    assert calls == []

    for i, m in enumerate(a.test.measurements, start=1):
        own = [m.kraus[label] for label in m.spectrum]
        assert all(k is o for k, o in zip(a.test._complete[i - 1].kraus, own))
        assert len(a.test._complete[i - 1].kraus) == len(own)
        hit, miss = a.event(i).outcomes, set(m.spectrum) - a.event(i).outcomes
        for channel, chosen in ((a.event(i)._hit, hit), (a.event(i)._miss, miss)):
            expected = [m.kraus[label] for label in m.spectrum if label in chosen]
            assert len(channel.kraus) == len(expected)
            assert all(k is e for k, e in zip(channel.kraus, expected))
