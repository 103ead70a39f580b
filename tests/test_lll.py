import math
import re

import numpy as np
import pytest

from helpers import build_pool, complemented, count_channel_work
from qlll.errors import BadPError, ConditionOnZeroError, MissingAssignmentError, ValidationError
from qlll.events import Event, Measurement, complete_event
from qlll.generate import (
    GeneratorKind,
    GeneratorSpec,
    generate,
    plus_state,
    rotated_qubit_measurement,
    zx_measurement_pair,
)
from qlll.independence import compute_profile
from qlll.linalg import ToleranceConfig, validate_density
from qlll.lll import LLLInstance, check_general, check_symmetric, symmetric_chain_holds
from qlll.probability import Test, TestEventAssignment, pr_test_cond, pr_test_marginal

P1, P2 = 0.04, 0.09


def two_qubit_instance():
    """Product state |00><00| with one tilted measurement per qubit.

    The tilt angle asin(sqrt(p)) makes the outcome-"1" probability exactly
    p on |0>, and locality makes every slot negatively independent, so all
    downstream quantities have closed forms.
    """
    eye = np.eye(2, dtype=complex)
    locals_ = [
        rotated_qubit_measurement(math.asin(math.sqrt(P1)), "A"),
        rotated_qubit_measurement(math.asin(math.sqrt(P2)), "B"),
    ]
    lifted = []
    for slot, m in enumerate(locals_):
        kraus = {}
        for o, k in m.kraus.items():
            kraus[o] = np.kron(k, eye) if slot == 0 else np.kron(eye, k)
        lifted.append(Measurement(m.name, kraus))
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    t = Test(validate_density(rho), tuple(lifted))
    return TestEventAssignment(t, {1: Event(lifted[0], ["1"]), 2: Event(lifted[1], ["1"])})


@pytest.fixture(scope="module")
def anchor():
    return two_qubit_instance()


def test_general_report_closed_form(anchor):
    inst = LLLInstance(anchor, (0.1, 0.1))
    report = check_general(inst)
    assert report.assumption_ok == (True, True)
    for row, marginal in zip(report.assumption_rows, (P1, P2)):
        assert row["marginal"] == pytest.approx(marginal, abs=1e-9)
        assert row["bound"] == pytest.approx(0.1, abs=1e-12)
    for (value, x), marginal in zip(report.lemma_bounds, (P1, P2)):
        assert value == pytest.approx(marginal, abs=1e-9)
        assert x == 0.1
        assert value <= x + 1e-9
    assert report.lhs == pytest.approx((1 - P1) * (1 - P2), abs=1e-9)
    assert report.rhs == pytest.approx(0.81, abs=1e-12)
    assert report.bound_ok
    assert report.profile.d_min == 0
    assert report.profile.s == (0, 1)


def test_general_report_json_shape(anchor):
    doc = check_general(LLLInstance(anchor, (0.1, 0.1))).to_json()
    assert set(doc) == {
        "assumption_ok", "assumption", "lemma_bounds", "lhs", "rhs",
        "bound_ok", "s", "d_min", "symmetric",
    }
    assert doc["assumption_ok"] == [True, True]
    assert set(doc["assumption"][0]) == {"i", "marginal", "bound", "ok"}
    assert doc["lemma_bounds"][0]["ok"] is True
    assert doc["symmetric"] is None


def test_assumption_fails_for_tiny_weights(anchor):
    inst = LLLInstance(anchor, (0.01, 0.01))
    report = check_general(inst)
    assert report.assumption_ok == (False, False)
    # without the hypothesis the product bound is not owed, and indeed fails
    assert report.rhs == pytest.approx(0.99**2, abs=1e-12)
    assert not report.bound_ok


def test_lemma_ok_uses_the_check_tolerance(anchor):
    # the first conditional exceeds its weight by 5e-9: inside a 1e-8
    # tolerance, outside the default 1e-9
    inst = LLLInstance(anchor, (P1 - 5e-9, 0.1))
    loose = check_general(inst, ToleranceConfig(prob=1e-8)).to_json()
    assert loose["lemma_bounds"][0]["ok"] is True
    assert check_general(inst).to_json()["lemma_bounds"][0]["ok"] is False


def test_one_pass_matches_definitional_route():
    # check_general and check_symmetric read marginals, lemma conditionals
    # and the all-avoided probability from the profile, whose one walk of the
    # test applies the same channels in the same order as the reference route,
    # so the values must be exactly equal
    for a in build_pool(40):
        n = a.n
        marginals = [pr_test_marginal(a, (i,)) for i in range(1, n + 1)]
        lemma = []
        for i in range(1, n + 1):
            prefix = tuple(range(1, i))
            try:
                lemma.append(pr_test_cond(complemented(a, prefix), prefix, (i,)))
            except ConditionOnZeroError:
                lemma.append(None)
        all_slots = tuple(range(1, n + 1))
        lhs = pr_test_marginal(complemented(a, all_slots), all_slots)

        report = check_general(LLLInstance(a, (0.5,) * n))
        assert [r["marginal"] for r in report.assumption_rows] == marginals
        assert [v for v, _ in report.lemma_bounds] == lemma
        assert report.lhs == lhs
        symmetric = check_symmetric(a, p=1.0, profile=report.profile)
        assert symmetric.p_max == max(marginals)
        assert symmetric.lhs == lhs


def test_a_full_check_walks_only_its_profile(monkeypatch):
    # the general check computes the profile, the symmetric check is handed it,
    # and neither applies a channel or reads an effect beyond the profile's own
    calls = count_channel_work(monkeypatch)
    for a in build_pool(40):
        calls.clear()
        compute_profile(a)
        profile_work = list(calls)
        calls.clear()
        report = check_general(LLLInstance(a, (0.5,) * a.n))
        check_symmetric(a, profile=report.profile)
        assert calls == profile_work
        assert profile_work.count("trace_of") >= 2 * a.n  # each marginal and each advance


def test_symmetric_refuses_a_profile_of_another_assignment_or_tolerance():
    a, b = build_pool(2)
    with pytest.raises(ValidationError, match="another assignment"):
        check_symmetric(a, profile=compute_profile(b))
    # the profile is refused by identity: an equal copy is another assignment
    twin = a.with_event(1, a.event(1))
    assert twin == a and twin is not a
    with pytest.raises(ValidationError, match="another assignment"):
        check_symmetric(a, profile=compute_profile(twin))
    loose = ToleranceConfig(prob=1e-6)
    with pytest.raises(ValidationError, match="other tolerances"):
        check_symmetric(a, profile=compute_profile(a, loose))
    assert check_symmetric(a, tol=loose, profile=compute_profile(a, loose)) == check_symmetric(a, tol=loose)


def test_profile_needs_an_event_at_every_slot():
    # with n = 1 the table has no pair, but the walk reads slot 1's event
    m1, _ = zx_measurement_pair()
    bare = TestEventAssignment(Test(plus_state(), (m1,)), {})
    with pytest.raises(MissingAssignmentError, match="no event assigned at slot 1"):
        compute_profile(bare)


def test_symmetric_refuses_bad_p_before_any_walk():
    m1, m2 = zx_measurement_pair()
    partial = TestEventAssignment(Test(plus_state(), (m1, m2)), {1: Event(m1, ["0"])})
    with pytest.raises(BadPError, match="not a finite probability"):
        check_symmetric(partial, p=1.5)


def test_symmetric_pass(anchor):
    report = check_symmetric(anchor)
    assert report.p == pytest.approx(P2, abs=1e-9)
    assert report.p_max == report.p
    assert report.d_min == 0
    assert report.condition == "satisfied"
    assert report.condition_value == pytest.approx(P2 * math.e, abs=1e-9)
    assert report.explicit_bound == 0.0
    assert report.lhs == pytest.approx((1 - P1) * (1 - P2), abs=1e-9)
    assert report.verdict == "pass"
    assert report.positivity_ok is True
    assert report.chain_ok
    keys = set(report.to_json())
    assert keys == {
        "p", "d_min", "condition_value", "condition", "lhs",
        "explicit_bound", "positivity_ok", "verdict", "p_max", "chain_ok",
    }


def test_symmetric_rejects_p_below_max_marginal(anchor):
    with pytest.raises(BadPError) as exc:
        check_symmetric(anchor, p=0.05)
    assert exc.value.detail["p"] == 0.05
    assert exc.value.detail["p_max"] == pytest.approx(P2, abs=1e-9)


def test_symmetric_boundary_and_violated(anchor):
    at_one = check_symmetric(anchor, p=1.0 / math.e)
    assert at_one.condition == "boundary"
    assert at_one.verdict == "boundary"

    over = check_symmetric(anchor, p=0.4)
    assert over.condition == "violated"
    assert over.verdict == "not-applicable"
    assert over.positivity_ok is None
    # chain check is vacuous once the condition fails
    assert over.chain_ok


def test_symmetric_chain_scalar_inequality():
    for d in range(65):
        assert symmetric_chain_holds(d), d
        x = 1.0 / (d + 1)
        assert 1.0 / ((d + 1) * math.e) <= x * (1.0 - x) ** d + 1e-12, d


def test_instance_weight_validation(anchor):
    with pytest.raises(ValidationError):
        LLLInstance(anchor, (0.0, 0.5))
    with pytest.raises(ValidationError):
        LLLInstance(anchor, (1.5, 0.5))
    with pytest.raises(ValidationError):
        LLLInstance(anchor, (0.5,))
    LLLInstance(anchor, (1.0, 1.0))  # closed upper end is allowed


@pytest.mark.parametrize("bad", ["0.5", True, np.True_], ids=["str", "bool", "numpy-bool"])
def test_weights_and_p_must_be_real_numbers(anchor, bad):
    # "0.5" and True used to pass through float(): a weight of 0.5 or 1.0, p = 1.0
    with pytest.raises(ValidationError, match=f"weight x_1 {re.escape(repr(bad))} is not a real number"):
        LLLInstance(anchor, (bad, 0.5))
    with pytest.raises(ValidationError, match=f"supplied p {re.escape(repr(bad))} is not a real number"):
        check_symmetric(anchor, bad)


def test_numpy_weights_and_p_read_as_floats(anchor):
    inst = LLLInstance(anchor, (np.float32(0.5), np.float64(0.25)))
    assert inst.x == (0.5, 0.25) and all(type(v) is float for v in inst.x)
    assert LLLInstance(anchor, (1, 1)).x == (1.0, 1.0)
    with pytest.raises(ValidationError, match="weight x_1 None is not a real number"):
        LLLInstance(anchor, (None, 0.5))
    assert check_symmetric(anchor, np.float32(0.5)) == check_symmetric(anchor, 0.5)


def test_instance_requires_every_slot_assigned():
    m1, m2 = zx_measurement_pair()
    partial = TestEventAssignment(Test(plus_state(), (m1, m2)), {1: Event(m1, ["0"])})
    with pytest.raises(ValidationError, match="missing"):
        LLLInstance(partial, (0.5, 0.5))
    # the profile trips on the unassigned slot
    with pytest.raises(ValidationError, match="slot 2"):
        check_symmetric(partial)


def test_zero_probability_prefix_reports_none():
    m1, m2 = zx_measurement_pair()
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: complete_event(m1), 2: Event(m2, ["0"])},
    )
    inst = LLLInstance(a, (1.0, 0.5))
    report = check_general(inst)
    assert report.lemma_bounds[0][0] == pytest.approx(1.0, abs=1e-12)
    assert report.lemma_bounds[1][0] is None
    doc = report.to_json()
    assert doc["lemma_bounds"][1] == {"value": None, "x": 0.5, "ok": None}


def test_symmetric_on_reference_instance_is_violated():
    a = generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES, n=2, seed=0))
    report = check_symmetric(a)
    # both marginals are one half, and e/2 > 1
    assert report.p == pytest.approx(0.5, abs=1e-9)
    assert report.condition == "violated"
    assert report.verdict == "not-applicable"
