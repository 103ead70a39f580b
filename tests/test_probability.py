import hashlib
import json
import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from qlll.errors import (
    BadOrderingError,
    ConditionOnZeroError,
    DimensionMismatchError,
    MissingAssignmentError,
    NotCompleteError,
    QlllError,
    ValidationError,
)
from qlll.events import Event, Measurement, SuperOperator, complement, complete_event, empty_event
from qlll.generate import (
    GeneratorKind,
    GeneratorSpec,
    computational_measurement,
    generate,
    ginibre_state,
    minus_state,
    plus_state,
    random_projective_measurement,
    zx_measurement_pair,
)
from qlll.independence import (
    _decide,
    _difference,
    _neg_difference,
    compute_profile,
    is_independent,
    is_neg_independent,
)
from qlll.linalg import DEFAULT_TOL, validate_density
from qlll.lll import LLLInstance, check_general, check_symmetric
from qlll.oracle import enumerate_probability
from qlll.probability import (
    Test,
    TestEventAssignment,
    check_index_set,
    pr_state,
    pr_state_cond,
    pr_test_cond,
    pr_test_marginal,
)


@pytest.fixture
def zx():
    m1, m2 = zx_measurement_pair()
    return m1, m2


def test_empty_sequence_probability_is_state_trace():
    assert pr_state(plus_state(), []) == pytest.approx(1.0)


def test_reordering_changes_the_answer(zx):
    # measuring the diagonal-basis event first annihilates the minus state
    m1, m2 = zx
    rho = minus_state()
    first_then = [Event(m1, ["1"]), Event(m2, ["0"])]
    other_way = [Event(m2, ["0"]), Event(m1, ["1"])]
    assert pr_state(rho, first_then) == pytest.approx(0.25, abs=1e-9)
    assert pr_state(rho, other_way) == pytest.approx(0.0, abs=1e-9)


def test_leading_complete_event_is_not_removable(zx):
    m1, m2 = zx
    rho = plus_state()
    e20 = Event(m2, ["0"])
    e21 = Event(m2, ["1"])
    assert pr_state(rho, [complete_event(m1), e20]) == pytest.approx(0.5, abs=1e-9)
    assert pr_state(rho, [e20]) == pytest.approx(1.0, abs=1e-9)
    assert pr_state(rho, [complete_event(m1), e21]) == pytest.approx(0.5, abs=1e-9)
    assert pr_state(rho, [e21]) == pytest.approx(0.0, abs=1e-9)


def test_head_deletion_can_raise_conditional(zx):
    # negative control: deleting the head of the target sequence is unsound
    m1, m2 = zx
    rho = plus_state()
    e1 = Event(m1, ["0"])
    e2 = Event(m2, ["0"])
    e3 = Event(m1, ["1"])
    assert pr_state_cond(rho, [e1], [e2, e3]) == pytest.approx(0.25, abs=1e-9)
    assert pr_state_cond(rho, [e1], [e3]) == pytest.approx(0.0, abs=1e-9)


def test_state_level_total_probability_fails(zx):
    m1, m2 = zx
    rho = plus_state()
    e1 = Event(m1, ["0"])
    e2 = Event(m2, ["0"])
    e3 = Event(m1, ["1"])
    direct = pr_state(rho, [e1, e3])
    branched = pr_state(rho, [e1, e2, e3]) + pr_state(rho, [e1, complement(e2), e3])
    assert direct == pytest.approx(0.0, abs=1e-9)
    assert branched == pytest.approx(0.25, abs=1e-9)


def test_marginal_pads_unlisted_slots(zx):
    m1, m2 = zx
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: Event(m1, ["0"]), 2: Event(m2, ["0"])},
    )
    # slot 1 is padded with the complete first measurement
    assert pr_test_marginal(a, (2,)) == pytest.approx(0.5, abs=1e-9)
    b = a.with_event(2, Event(m2, ["1"]))
    assert pr_test_marginal(b, (2,)) == pytest.approx(0.5, abs=1e-9)
    assert pr_test_marginal(a, ()) == pytest.approx(1.0)


def test_conditioning_on_complete_slot_matches_marginal(zx):
    # the fixed regression for the definition-literal reading: both sides 1/2
    m1, m2 = zx
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: complete_event(m1), 2: Event(m2, ["0"])},
    )
    assert pr_test_cond(a, (1,), (2,)) == pytest.approx(0.5, abs=1e-9)
    assert pr_test_marginal(a, (2,)) == pytest.approx(0.5, abs=1e-9)


def test_joint_prefix(zx):
    m1, m2 = zx
    a = TestEventAssignment(
        Test(minus_state(), (m1, m2)),
        {1: Event(m1, ["1"]), 2: Event(m2, ["0"])},
    )
    assert pr_test_marginal(a, (1, 2)) == pytest.approx(0.25, abs=1e-9)
    assert pr_test_marginal(a, (1,)) == pytest.approx(0.5, abs=1e-9)


def test_test_rejects_dimension_mismatch(zx):
    m1, _ = zx
    rho3 = validate_density(np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatchError):
        Test(rho3, (m1,))


def test_state_probability_rejects_event_of_other_dimension():
    event = Event(computational_measurement(3, "Z3"), ["0"])
    with pytest.raises(DimensionMismatchError, match="dimension 3, state has 2"):
        pr_state(plus_state(), [event])


def test_test_needs_a_measurement():
    with pytest.raises(ValidationError, match="at least one measurement"):
        Test(plus_state(), ())


@pytest.mark.parametrize("dim, n, excess, trace_error", [(8, 6, 0.9e-9, 0.0), (2, 1, 0.95e-9, 0.9e-10)])
def test_a_trace_and_completeness_budget_past_tol_prob_is_refused(dim, n, excess, trace_error):
    # each measurement and the state pass their own checks, but the complete
    # channels add their excesses to the trace's: the marginal of the first
    # two (six d=8 slots) or first one (one d=2 slot, trace 1 + 0.9e-10)
    # complete events used to read 1.0000000018 or 1.00000000104, past the clamp
    measurements = [Measurement(f"M{i}", helpers.overcomplete_pair(dim, excess)) for i in range(1, n + 1)]
    assert [m._excess for m in measurements] == pytest.approx([excess] * n, rel=1e-6)
    rho = validate_density(np.eye(dim) * (1 + trace_error) / dim)
    with pytest.raises(NotCompleteError, match="completeness budget") as exc:
        Test(rho, measurements)
    assert exc.value.detail["budget"] == pytest.approx(trace_error + n * excess, rel=1e-6)
    # one slot at a unit trace stays inside the budget, and so do its probabilities
    test = Test(validate_density(np.eye(dim) / dim), measurements[:1])
    assert pr_test_marginal(TestEventAssignment(test, {1: complete_event(measurements[0])}), (1,)) == 1.0


def test_a_states_negative_mass_joins_the_budget():
    # the state passes its own check (negative mass -0.95e-9, trace 1 + 0.9e-10)
    # and the measurement is exactly complete, but the event {0} selects the
    # whole positive part: its marginal used to read 1.00000000104, past the clamp
    rho = validate_density(np.diag([1 + 0.95e-9 + 0.9e-10, -0.95e-9]))
    assert rho._negative == pytest.approx(-0.95e-9)
    with pytest.raises(NotCompleteError, match="negative-mass and completeness budget") as exc:
        Test(rho, (computational_measurement(2),))
    assert exc.value.detail["budget"] == pytest.approx(0.95e-9 + 0.9e-10, rel=1e-6)
    # the same mass on a unit trace stays inside the budget
    assert Test(validate_density(np.diag([1 + 0.95e-9, -0.95e-9])), (computational_measurement(2),)).n == 1


@pytest.mark.parametrize("given_count, then_count", [(0, 6), (2, 4), (1, 1)])
def test_a_state_sequence_is_admitted_as_the_test_of_its_measurements(given_count, then_count):
    # one d=8 measurement 0.9e-9 past complete passes its own check, and each
    # repeat adds its excess again: six complete events used to read
    # 1.0000000054 and end in InternalConsistency (the conditionals 1.0000000018);
    # given and then admitted apart would each pass, and their walk would not
    dim, excess = 8, 0.9e-9
    full = complete_event(Measurement("M1", helpers.overcomplete_pair(dim, excess)))
    rho = validate_density(np.eye(dim) / dim)
    assert pr_state(rho, [full]) == 1.0  # 1 + 0.9e-9, clamped
    with pytest.raises(NotCompleteError, match="completeness budget") as exc:
        if given_count:
            pr_state_cond(rho, [full] * given_count, [full] * then_count)
        else:
            pr_state(rho, [full] * then_count)
    assert exc.value.detail["budget"] == pytest.approx((given_count + then_count) * excess, rel=1e-6)


def test_a_state_conditional_admits_then_before_reading_its_denominator():
    # the empty conditioning event has probability 0, but the event of the
    # wrong dimension in *then* is refused first
    m1, _ = zx_measurement_pair()
    stranger = Event(computational_measurement(3, "Z3"), ["0"])
    with pytest.raises(DimensionMismatchError, match="measurement 'Z3' has dimension 3, state has 2"):
        pr_state_cond(plus_state(), [empty_event(m1)], [stranger])


def test_a_conditional_may_pass_one_by_the_admitted_budget_above_a_small_denominator():
    # the conditioning marginal reads 2e-9 and the joint 2.5e-9: the state's
    # negative mass, 0.5e-9, lifts the numerator past the denominator by more
    # than a relative tol.prob * denom, which used to end in InternalConsistency
    rho = validate_density(helpers.RATIO_PROBE_STATE)
    measurements = tuple(Measurement(name, kraus) for name, kraus in helpers.RATIO_PROBE_KRAUS.items())
    events = {i: Event(m, outcomes) for i, (m, outcomes) in enumerate(zip(measurements, helpers.RATIO_PROBE_EVENTS), 1)}
    a = TestEventAssignment(Test(rho, measurements), events)
    assert pr_test_marginal(a, (1,)) == pytest.approx(2e-9, rel=1e-6)
    assert pr_test_marginal(a, (1, 2)) == pytest.approx(2.5e-9, rel=1e-6)
    assert pr_test_cond(a, (1,), (2,)) == 1.0
    assert pr_state_cond(rho, [events[1]], [events[2]]) == 1.0
    assert is_independent(a, 2, (1,)) is False


def test_generated_budgets_are_far_below_tol_prob(pool40):
    shapes = [(GeneratorKind.TENSOR_PRODUCT, 6, 2, 1), (GeneratorKind.SLIDING_WINDOW, 5, 2, 2)]
    d64 = [generate(GeneratorSpec(kind=k, n=n, local_dim=d, window=w, seed=1)) for k, n, d, w in shapes]
    for a in pool40 + d64:
        trace_error = abs(np.trace(a.test.rho.matrix).real - 1.0)
        assert trace_error + sum(m._excess for m in a.test.measurements) <= 1e-12


def test_assignment_rejects_slot_past_the_test(zx):
    m1, m2 = zx
    with pytest.raises(ValidationError, match="assignment index 3 outside 1..2"):
        TestEventAssignment(Test(plus_state(), (m1, m2)), {3: Event(m2, ["0"])})


def test_assignment_rejects_foreign_measurement(zx):
    m1, m2 = zx
    stranger = computational_measurement(2, "Q")
    with pytest.raises(ValidationError):
        TestEventAssignment(Test(plus_state(), (m1, m2)), {1: Event(stranger, ["0"])})


def test_marginal_needs_assigned_slots(zx):
    m1, m2 = zx
    a = TestEventAssignment(Test(plus_state(), (m1, m2)), {1: Event(m1, ["0"])})
    with pytest.raises(MissingAssignmentError):
        pr_test_marginal(a, (2,))
    assert pr_test_marginal(a, (1,)) == pytest.approx(0.5, abs=1e-9)


def test_check_index_set_contract():
    check_index_set((1, 3, 4), 4)
    for bad in ((0,), (5,), (2, 2), (3, 1)):
        with pytest.raises(ValidationError):
            check_index_set(bad, 4)


@pytest.mark.parametrize(
    "bad", [1.7, 2.0, True, np.True_, "1", None], ids=["float", "integral-float", "bool", "numpy-bool", "str", "none"]
)
def test_slot_indices_must_be_integers(pool40, bad):
    # a float used to be truncated (1.7 -> slot 1) and a bool read as 0 or 1
    a = next(a for a in pool40 if a.n >= 3)
    e = a.event(1)
    probes = (
        lambda: pr_test_marginal(a, [bad]),
        lambda: pr_test_cond(a, (1,), (bad,)),
        lambda: is_independent(a, 3, (bad,)),
        lambda: enumerate_probability(a, (bad,)),
        lambda: TestEventAssignment(a.test, {bad: e}),
        lambda: a.with_event(bad, e),
        lambda: is_neg_independent(a, bad, (1,)),
    )
    for probe in probes:
        with pytest.raises(ValidationError, match=f"index {re.escape(repr(bad))} is not an integer"):
            probe()


def test_numpy_integer_slot_indices_read_as_ints(pool40):
    a = next(a for a in pool40 if a.n >= 3)
    one, three = np.int64(1), np.int32(3)
    assert pr_test_marginal(a, np.array([1, 3])) == pr_test_marginal(a, (1, 3))
    assert pr_test_cond(a, (one,), (three,)) == pr_test_cond(a, (1,), (3,))
    assert is_neg_independent(a, three, (one,)) == is_neg_independent(a, 3, (1,))
    assert a.with_event(one, a.event(1)).assigned() == a.assigned()
    assert check_index_set(np.arange(1, 4), 3) == (1, 2, 3)
    assert all(type(i) is int for i in check_index_set(np.arange(1, 4), 3))


def test_event_reads_only_integer_slots(pool40):
    # True and 1.0 used to read slot 1's event straight from the dict
    a = next(a for a in pool40 if a.n >= 3)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValidationError, match=f"index {re.escape(repr(bad))} is not an integer"):
            a.event(bad)
    assert a.event(np.int64(1)) is a.event(1)
    partial = TestEventAssignment(a.test, {1: a.event(1)})
    with pytest.raises(MissingAssignmentError, match="no event assigned at slot 2"):
        partial.event(2)


def test_conditional_needs_condition_before_target(zx):
    m1, m2 = zx
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: Event(m1, ["0"]), 2: Event(m2, ["0"])},
    )
    with pytest.raises(BadOrderingError):
        pr_test_cond(a, (2,), (1,))
    with pytest.raises(BadOrderingError):
        pr_test_cond(a, (1,), (1,))


def test_conditioning_on_zero_probability_raises(zx):
    m1, m2 = zx
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: empty_event(m1), 2: Event(m2, ["0"])},
    )
    with pytest.raises(ConditionOnZeroError) as exc:
        pr_test_cond(a, (1,), (2,))
    assert "K" in exc.value.detail


def test_empty_condition_set_divides_by_one(zx):
    m1, m2 = zx
    a = TestEventAssignment(
        Test(plus_state(), (m1, m2)),
        {1: Event(m1, ["0"]), 2: Event(m2, ["0"])},
    )
    assert pr_test_cond(a, (), (2,)) == pytest.approx(pr_test_marginal(a, (2,)))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_event_with_complement_exhausts_mass(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_state(2, rng)
    m = random_projective_measurement(2, 2, rng, "P")
    ev = Event(m, [m.spectrum[0]])
    total = pr_state(rho, [ev]) + pr_state(rho, [complement(ev)])
    assert total == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sequence_probability_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_state(3, rng)
    m = random_projective_measurement(3, 3, rng, "P")
    seq = [
        Event(m, rng.choice(m.spectrum, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(3)
    ]
    p = pr_state(rho, seq)
    assert -1e-12 <= p <= 1.0


# ---------------------------------------------------------------------------
# The one-walk conditional against the two-walk definition


def _subsets(items):
    items = tuple(items)
    return [tuple(x for b, x in enumerate(items) if mask >> b & 1) for mask in range(1 << len(items))]


def _ordered_pairs(n):
    """Every (K, L) with K before L and L nonempty: prefix and gapped K alike."""
    for K in _subsets(range(1, n + 1)):
        start = K[-1] + 1 if K else 1
        for L in _subsets(range(start, n + 1)):
            if L:
                yield K, L


def _two_walk_test_cond(a, K, L, tol=DEFAULT_TOL):
    denom = pr_test_marginal(a, K, tol)
    if denom <= tol.prob:
        raise ConditionOnZeroError(
            f"conditioning events at slots {list(K)} have probability "
            f"{denom!r} <= {tol.prob!r}",
            denominator=denom,
            K=list(K),
        )
    return min(pr_test_marginal(a, K + L, tol) / denom, 1.0)


def _two_walk_state_cond(rho, given, then, tol=DEFAULT_TOL):
    denom = pr_state(rho, given, tol)
    if denom <= tol.prob:
        raise ConditionOnZeroError(
            f"conditioning sequence has probability {denom!r} <= {tol.prob!r}",
            denominator=denom,
        )
    return min(pr_state(rho, list(given) + list(then), tol) / denom, 1.0)


def _same_outcome(one_walk, two_walk):
    """Both routes return the same float, or both refuse with the same error."""
    try:
        expected = two_walk()
    except (ConditionOnZeroError, MissingAssignmentError) as ref:
        with pytest.raises(type(ref)) as exc:
            one_walk()
        assert exc.value.detail == ref.detail
        assert str(exc.value) == str(ref)
        return "zero" if isinstance(ref, ConditionOnZeroError) else "missing"
    assert one_walk() == expected
    return "value"


@pytest.fixture(scope="module")
def pool40():
    return helpers.build_pool(40)


def _variants(a):
    # an empty event at slot 1 makes every K that holds slot 1 condition on zero
    return (
        a,
        helpers.complemented(a, a.assigned()),
        a.with_event(1, empty_event(a.test.measurements[0])),
    )


def _answer(query):
    """*query*'s value, or the type and message of the library error it raises."""
    try:
        return query()
    except QlllError as exc:
        return [type(exc).__name__, str(exc)]


def _answers(a) -> dict:
    """Profile, both checks and every probability query of *a*, as JSON-ready values."""
    rho, seq = a.test.rho, [a.event(i) for i in a.assigned()]
    return {
        "profile": compute_profile(a).to_json(),
        "general": check_general(LLLInstance(a, (0.5,) * a.n)).to_json(),
        "symmetric": _answer(lambda: check_symmetric(a).to_json()),
        "marginal": [_answer(lambda: pr_test_marginal(a, K)) for K in _subsets(range(1, a.n + 1))],
        "cond": [_answer(lambda: pr_test_cond(a, K, L)) for K, L in _ordered_pairs(a.n)],
        "indep": [
            [_answer(lambda: _difference(a, L[0], K, None, DEFAULT_TOL)),
             _answer(lambda: _neg_difference(a, L[0], K, DEFAULT_TOL))]
            for K, L in _ordered_pairs(a.n)
            if len(L) == 1
        ],
        "state": [
            [_answer(lambda: pr_state(rho, seq[:cut])), _answer(lambda: pr_state_cond(rho, seq[:cut], seq[cut:]))]
            for cut in range(len(seq) + 1)
        ],
    }


def _answers_digest(pool) -> str:
    doc = [_answers(a) for a0 in pool for a in _variants(a0)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_pool_answers_are_pinned_bit_for_bit(pool40):
    # json writes each float's shortest repr, so any changed bit changes the
    # digest; the tensor-product items take the site-local channel route
    assert _answers_digest(pool40) == "636ea22a4b9ffd8986f3f3e07b91decead1689fba8a6fdb0b670c4611a0a9645"


def test_dense_pool_answers_are_pinned_bit_for_bit(pool40):
    # the items whose operators hold no identity factor take the dense channel
    # route, so their digest must not move when the site-local route does
    dense = [a for t, a in enumerate(pool40) if helpers.pool_spec(t).kind is not GeneratorKind.TENSOR_PRODUCT]
    assert len(dense) == 30
    assert _answers_digest(dense) == "ff21d65baae8e7e8e076f7a749e497bdb001de804af48d4be3e0fdbb2fb86c10"


def test_test_cond_matches_two_walk_definition(pool40):
    seen = set()
    for a0 in pool40:
        for a in _variants(a0):
            for K, L in _ordered_pairs(a.n):
                seen.add(_same_outcome(
                    lambda: pr_test_cond(a, K, L), lambda: _two_walk_test_cond(a, K, L)
                ))
    assert seen == {"zero", "value"}


def test_state_cond_matches_two_walk_definition(pool40):
    seen = set()
    for a0 in pool40:
        for a in _variants(a0):
            rho = a.test.rho
            seq = [a.event(i) for i in a.assigned()]
            for cut in range(len(seq) + 1):
                for then in _subsets(seq[cut:]):
                    given = seq[:cut]
                    seen.add(_same_outcome(
                        lambda: pr_state_cond(rho, given, then),
                        lambda: _two_walk_state_cond(rho, given, then),
                    ))
    assert seen == {"zero", "value"}


def test_test_cond_walks_max_L_channels(pool40, monkeypatch):
    # a test applies its n - 1 complete channels once, when it is built, to walk
    # tau.  A query then starts at tau_{k-1}, k = K[0] (min(L) for an empty K),
    # applies the channels of slots k..m-1 and reads slot m's as an effect:
    # m = max(L), or max(K) when the condition has probability zero.  A nonempty
    # K reads its denominator; an empty one takes tr(rho), walking no channel.
    calls = helpers.count_channel_work(monkeypatch)
    for a in (v for a0 in pool40 for v in _variants(a0)):
        calls.clear()
        fresh = TestEventAssignment(Test(a.test.rho, a.test.measurements), a.events)
        assert (calls.count("__call__"), calls.count("trace_of")) == (a.n - 1, 0)
        for K, L in _ordered_pairs(a.n):
            first = K[0] if K else L[0]
            calls.clear()
            try:
                pr_test_cond(fresh, K, L)
            except ConditionOnZeroError:
                assert (calls.count("__call__"), calls.count("trace_of")) == (K[-1] - first, 1)
                continue
            assert (calls.count("__call__"), calls.count("trace_of")) == (L[-1] - first, 1 + bool(K))


def _fresh_answers_match(a):
    """Every marginal and conditional of *a* equals the same query on a fresh test."""

    def fresh():
        return TestEventAssignment(Test(a.test.rho, a.test.measurements), a.events)

    seen = set()
    for K in _subsets(range(1, a.n + 1)):
        seen.add(_same_outcome(lambda: pr_test_marginal(a, K), lambda: pr_test_marginal(fresh(), K)))
    for K, L in _ordered_pairs(a.n):
        seen.add(_same_outcome(lambda: pr_test_cond(a, K, L), lambda: pr_test_cond(fresh(), K, L)))
    return seen


def test_warm_tau_answers_equal_a_fresh_assignments(pool40):
    # tau holds rho through complete channels only: walked once by the test and
    # shared with every assignment on it, with_event copies included, it must
    # give the floats of a fresh test that walks it again per query
    seen = set()
    for a0 in pool40:
        for a in _variants(a0):
            assert len(a.test._tau) == a.n
            seen |= _fresh_answers_match(a)
            for i in a.assigned():
                b = a.with_event(i, complement(a.event(i)))
                assert b.test._tau is a.test._tau
                seen |= _fresh_answers_match(b)
    assert seen == {"zero", "value"}


def test_an_assignment_holds_only_its_test_and_events(pool40):
    # every channel and tau live on the test and the events, so queries and
    # walks leave nothing behind on the assignment
    for a0 in pool40[:8]:
        for a in _variants(a0):
            b = a.with_event(1, complement(a.event(1)))
            for c in (a, b):
                check_general(LLLInstance(c, (0.5,) * c.n))
                pr_test_cond(c, (), (c.n,))
                assert vars(c).keys() == {"test", "events"}


@pytest.mark.parametrize("kind", [GeneratorKind.TENSOR_PRODUCT, GeneratorKind.RANDOM_POVM], ids=lambda k: k.value)
def test_states_and_tests_compare_by_value(kind):
    # the generated == compared arrays and raised, and hash(rho) refused the array
    a, b = (generate(GeneratorSpec(kind=kind, n=3, seed=1)) for _ in range(2))
    other = generate(GeneratorSpec(kind=kind, n=3, seed=2))
    assert a.test.rho is not b.test.rho and a.test is not b.test
    assert a.test.rho == b.test.rho and hash(a.test.rho) == hash(b.test.rho)
    assert a.test == b.test and hash(a.test) == hash(b.test)
    assert a.test.rho != other.test.rho and a.test != other.test
    assert len({a.test.rho, b.test.rho, other.test.rho}) == len({a.test, b.test, other.test}) == 2
    assert Test(a.test.rho, other.test.measurements) != a.test
    assert plus_state() != validate_density(np.eye(4) / 4)  # different dimensions


@pytest.mark.parametrize("kind", [GeneratorKind.TENSOR_PRODUCT, GeneratorKind.RANDOM_POVM], ids=lambda k: k.value)
def test_assignments_and_instances_compare_by_value(kind):
    # assignments compared by identity, so generate(s) == generate(s) was False
    # although their tests and event maps were equal
    a, b = (generate(GeneratorSpec(kind=kind, n=3, seed=1)) for _ in range(2))
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != generate(GeneratorSpec(kind=kind, n=3, seed=2))
    assert a != a.with_event(1, complement(a.event(1)))
    x = (0.5,) * a.n
    assert LLLInstance(a, x) == LLLInstance(b, x) and hash(LLLInstance(a, x)) == hash(LLLInstance(b, x))
    assert a.with_event(1, a.event(1)) == a
    m = a.test.measurements[0]
    with pytest.raises(AttributeError):
        a.test = b.test
    with pytest.raises(AttributeError):
        m.tol = DEFAULT_TOL


def test_repeated_state_queries_build_each_effect_once(monkeypatch):
    # each event holds its hit channel, and the channel its effect, so a
    # repeated bare-state query reads the effects built by the first; the
    # count starts after construction, where each measurement has built the
    # effect of its complete channel to check completeness
    a = generate(GeneratorSpec(kind=GeneratorKind.TENSOR_PRODUCT, n=3, local_dim=2, seed=1))
    built, original = [], SuperOperator._effect.func

    def counting(self):
        built.append(self)
        return original(self)

    effect = cached_property(counting)
    effect.__set_name__(SuperOperator, "_effect")
    monkeypatch.setattr(SuperOperator, "_effect", effect)
    assert all("_effect" in vars(m._complete) for m in a.test.measurements)
    seq = [a.event(i) for i in a.assigned()]
    assert len({pr_state(a.test.rho, seq) for _ in range(3)}) == 1
    assert len(built) == 1 and built[0] is seq[-1]._hit
    built.clear()
    assert len({pr_state_cond(a.test.rho, seq[:1], seq[1:]) for _ in range(3)}) == 1
    assert len(built) == 1 and built[0] is seq[0]._hit  # seq[-1]'s effect was built above


# ---------------------------------------------------------------------------
# The test route's channels against explicitly padded event sequences


def _reference_padded(a, K, flip=()):
    """Events of slots 1..max(K): the assigned event at K (complemented at *flip*), else complete.

    Built as fresh events with ``Event``, ``complete_event`` and ``complement``,
    so it shares no channel with the test, or with the assigned events.
    """
    seq = []
    for i in range(1, (K[-1] if K else 0) + 1):
        if i in K:
            e = a.event(i)
            seq.append(complement(e) if i in flip else Event(e.measurement, e.outcomes))
        else:
            seq.append(complete_event(a.test.measurements[i - 1]))
    return seq


def _reference_test_cond(a, K, L, flip=()):
    """pr_state_cond over the padded events, raising what the test route must raise."""
    seq = _reference_padded(a, K + L, flip)
    cut = K[-1] if K else 0
    try:
        return pr_state_cond(a.test.rho, seq[:cut], seq[cut:])
    except ConditionOnZeroError as exc:
        denom = exc.detail["denominator"]
        raise ConditionOnZeroError(
            f"conditioning events at slots {list(K)} have probability {denom!r} <= {DEFAULT_TOL.prob!r}",
            denominator=denom,
            K=list(K),
        ) from None


def _table_variants(a):
    # the unassigned-slot variants drop the first or the last slot's event; a
    # complete event at slot 1 leaves every later avoided prefix at probability 0.
    # All but the unassigned ones come from with_event, which keeps the
    # parent's test and its events outside the slot it changes; the last one
    # fills an unassigned slot that way.
    dropped = tuple(
        TestEventAssignment(a.test, {i: e for i, e in a.events.items() if i != drop})
        for drop in (1, a.n)
    )
    return _variants(a) + dropped + (
        a.with_event(1, complete_event(a.test.measurements[0])),
        dropped[0].with_event(1, complement(a.event(1))),
    )


def test_channel_table_matches_padded_event_sequences(pool40):
    seen = set()
    for a0 in pool40:
        for a in _table_variants(a0):
            rho = a.test.rho
            for K in _subsets(range(1, a.n + 1)):
                seen.add(_same_outcome(
                    lambda: pr_test_marginal(a, K), lambda: pr_state(rho, _reference_padded(a, K))
                ))
            for K, L in _ordered_pairs(a.n):
                seen.add(_same_outcome(
                    lambda: pr_test_cond(a, K, L), lambda: _reference_test_cond(a, K, L)
                ))
                if len(L) > 1:
                    continue
                seen.add(_same_outcome(
                    lambda: _neg_difference(a, L[0], K, DEFAULT_TOL),
                    lambda: _decide(
                        _reference_test_cond(a, K, L, flip=K),
                        pr_state(rho, _reference_padded(a, L)),
                        DEFAULT_TOL,
                    ),
                ))

            def reference_pass():
                marginals, lemma = [], []
                for i in range(1, a.n + 1):
                    marginals.append(pr_state(rho, _reference_padded(a, (i,))))
                    prefix = tuple(range(1, i))
                    try:
                        lemma.append(_reference_test_cond(a, prefix, (i,), flip=prefix))
                    except ConditionOnZeroError:
                        lemma.append(None)
                every = tuple(range(1, a.n + 1))
                return tuple(marginals), tuple(lemma), pr_state(rho, _reference_padded(a, every, flip=every))

            def profile_walk():
                profile = compute_profile(a)
                return profile.marginals, profile.lemma, profile.avoided

            seen.add(_same_outcome(profile_walk, reference_pass))
    assert seen == {"value", "zero", "missing"}


def test_neg_difference_checks_the_target_before_missing_conditions(pool40):
    # the target's range is validated before the conditioning slots' events
    # are looked up; an unassigned conditioning slot used to be reported first
    a0 = pool40[0]
    a = TestEventAssignment(a0.test, {i: e for i, e in a0.events.items() if i != 1})
    with pytest.raises(ValidationError, match=f"index {a.n + 1} outside 1..{a.n}") as exc:
        _neg_difference(a, a.n + 1, (1,), DEFAULT_TOL)
    assert not isinstance(exc.value, MissingAssignmentError)
    with pytest.raises(MissingAssignmentError, match="no event assigned at slot 1"):
        _neg_difference(a, a.n, (1,), DEFAULT_TOL)


def _same_channel(f, g):
    # super_operator_of takes the measurement's frozen arrays, so equal
    # channels hold the very same Kraus arrays
    return len(f.kraus) == len(g.kraus) and all(x is y for x, y in zip(f.kraus, g.kraus))


def _channels_of(a):
    return {i: (e._hit, e._miss) for i, e in a.events.items()}


def test_with_event_rebuilds_only_the_slot_it_changes(pool40):
    for a in pool40:
        parent = (dict(a.events), _channels_of(a), a.test._complete, a.test._tau)
        for i in a.assigned():
            b = a.with_event(i, complement(a.event(i)))
            assert b.test is a.test
            for j in a.assigned():
                if j != i:
                    assert b.events[j] is a.events[j]
                    assert all(x is y for x, y in zip(_channels_of(b)[j], parent[1][j]))
            assert not any(x is y for x, y in zip(_channels_of(b)[i], parent[1][i]))
            # equal objects built from scratch give channels over the same Kraus arrays
            fresh = TestEventAssignment(
                Test(a.test.rho, a.test.measurements),
                {j: Event(e.measurement, e.outcomes) for j, e in b.events.items()},
            )
            assert list(b.events.items()) == list(fresh.events.items())
            for (f, g), (h, k) in zip(_channels_of(b).values(), _channels_of(fresh).values()):
                assert _same_channel(f, h) and _same_channel(g, k)
            assert all(_same_channel(f, g) for f, g in zip(b.test._complete, fresh.test._complete))
            assert all(np.array_equal(x, y) for x, y in zip(b.test._tau, fresh.test._tau))
        assert dict(a.events) == parent[0]
        assert all(x is y for j in a.assigned() for x, y in zip(_channels_of(a)[j], parent[1][j]))
        assert a.test._complete is parent[2] and a.test._tau is parent[3]
        with pytest.raises(ValidationError, match="event at slot 1 is defined by measurement 'M2'"):
            a.with_event(1, complete_event(a.test.measurements[1]))
        with pytest.raises(ValidationError, match=f"assignment index {a.n + 1} outside 1..{a.n}"):
            a.with_event(a.n + 1, a.event(1))


def test_assignment_events_are_read_only(pool40):
    a = pool40[0]
    with pytest.raises(TypeError):
        a.events[1] = complement(a.event(1))
    assert a.with_event(1, complement(a.event(1))).event(1) == complement(a.event(1))
