"""Admission at its boundary: an admitted input never ends in an internal fault.

Each example is a state and measurements that pass their own checks as
narrowly as they can: a completeness residual in [0.5, 1) tol.complete at a
slot, eigenvalues in [-tol.psd, 0), a trace off by up to tol.trace, up to the
dimension cap and n = 8.  Slots repeat measurements, and a bare-state
sequence of up to 8 events draws from them with repeats.  The targeted
shapes put a measurement in the state's eigenbasis, so an event can select
the negative eigenvector together with a small positive one, the shape of a
conditional just above the zero gate, and favour complete events, whose
repeats add up their measurement's excess.  Hypothesis draws the structure
and a seed; numpy draws the eigenvalues, residuals and bases from that seed.
Every query either refuses the input with a typed error or answers it; none
may raise InternalConsistencyError.  The examples are derandomized, so the
suite runs the same cases every time, in about a second.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import helpers
from qlll.errors import InternalConsistencyError, QlllError, ValidationError
from qlll.events import Event, Measurement
from qlll.generate import haar_unitary
from qlll.independence import compute_profile
from qlll.linalg import DEFAULT_DIM_CAP, DEFAULT_TOL as TOL, validate_density
from qlll.lll import LLLInstance, check_general, check_symmetric
from qlll.oracle import enumerate_probability
from qlll.probability import Test, TestEventAssignment, pr_state, pr_state_cond, pr_test_cond, pr_test_marginal

DIMS = (2, 3, 3, 4, 4, 8, DEFAULT_DIM_CAP)  # the cap drawn least: its channels cost the most
# enumeration sums every trajectory of its horizon; keep the horizon this small
ENUMERATED = 64


@dataclass(frozen=True)
class Case:
    state: np.ndarray
    kraus: tuple[dict, ...]  # measurement M{j + 1}: outcome label -> Kraus operator
    slots: tuple[tuple[int, tuple[str, ...]], ...]  # each slot's (measurement, event), repeats allowed
    seq: tuple[tuple[int, tuple[str, ...]], ...]  # the bare-state sequence, the same way
    cut: int  # pr_state_cond conditions on seq[:cut]


def _measurement(draw, rng, eigenbasis: np.ndarray, eigenvalues: np.ndarray, low: set[int]) -> dict:
    """A projective measurement, each operator or one scaled up to 0.5-1 tol.complete past complete.

    Its basis is the state's eigenbasis cut into blocks of eigenvalues in
    increasing order at the *low* counts, past the negative ones and past the
    small positive ones, so that an event can select the negative and small
    eigenvectors alone and a later one split them.  Otherwise it is that
    basis, or a Haar-random one, grouped at random.
    """
    dim = len(eigenvalues)
    shape = draw(st.sampled_from(["blocks", "groups", "haar"]))
    if shape == "blocks":
        cuts = sorted(c for c in low if 0 < c < dim) or [1]
        k, groups = len(cuts) + 1, np.empty(dim, dtype=int)
        groups[np.argsort(eigenvalues)] = np.searchsorted(cuts, np.arange(dim), side="right")
    else:
        k = draw(st.integers(2, min(dim, 4)))
        groups = rng.permutation([*range(k), *rng.integers(k, size=dim - k)])  # every outcome holds a basis vector
    basis = haar_unitary(dim, rng) if shape == "haar" else eigenbasis
    residual = draw(st.sampled_from([0.0, 0.0, rng.uniform(0.5, 1.0) * TOL.complete]))
    scaled = draw(st.sampled_from([None, draw(st.integers(0, k - 1))]))
    kraus = {}
    for g in range(k):
        columns = basis[:, [i for i, group in enumerate(groups) if group == g]]
        scale = np.sqrt(1 + residual) if scaled in (None, g) else 1.0
        kraus[str(g)] = scale * (columns @ columns.conj().T)
    return kraus


@st.composite
def cases(draw) -> Case:
    dim, n = draw(st.sampled_from(DIMS)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mostly a negative eigenvalue and a small positive one, the rest a random split of the trace
    count = min(draw(st.sampled_from([1, 1, 2, 0])), dim - 1)
    negative = list(-rng.uniform(0.0, TOL.psd, size=count))
    small = list(rng.uniform(2 * TOL.prob, 4 * TOL.prob, size=min(draw(st.sampled_from([1, 1, 0])), dim - 1 - count)))
    trace = 1.0 + rng.uniform(-TOL.trace, TOL.trace)
    rest = rng.dirichlet(np.ones(dim - len(negative) - len(small))) * (trace - sum(negative) - sum(small))
    eigenvalues = rng.permutation([*negative, *small, *rest])
    eigenbasis = np.eye(dim) if draw(st.booleans()) else haar_unitary(dim, rng)  # computational or rotated
    state = (eigenbasis * eigenvalues) @ eigenbasis.conj().T
    low = {len(negative), len(negative) + len(small)}
    kraus = tuple(_measurement(draw, rng, eigenbasis, eigenvalues, low) for _ in range(draw(st.integers(1, min(n, 3)))))

    def event(j):  # any subset of the outcomes, the complete event a third of the time
        full = 2 ** len(kraus[j]) - 1
        mask = draw(st.sampled_from([full, draw(st.integers(0, full)), draw(st.integers(0, full))]))
        return j, tuple(label for bit, label in enumerate(kraus[j]) if mask >> bit & 1)

    slots = tuple(event(draw(st.integers(0, len(kraus) - 1))) for _ in range(n))
    # a few events, each drawn again and again
    pool = [event(draw(st.integers(0, len(kraus) - 1))) for _ in range(draw(st.integers(1, 3)))]
    seq = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
    return Case(state, kraus, slots, seq, draw(st.integers(0, len(seq))))


def _queries(rho, measurements, case: Case):
    """Every query the case admits, as thunks: the test's when its test is admitted, then the bare state's."""
    try:
        test = Test(rho, tuple(measurements[j] for j, _ in case.slots))
    except ValidationError:
        queries = []
    else:
        a = TestEventAssignment(test, {i: Event(measurements[j], e) for i, (j, e) in enumerate(case.slots, 1)})
        n = a.n
        queries = [lambda K=K: pr_test_marginal(a, K) for j in range(1, n + 1) for K in ((j,), tuple(range(1, j + 1)))]
        queries += [lambda c=c: pr_test_cond(a, tuple(range(1, c + 1)), tuple(range(c + 1, n + 1))) for c in range(n)]
        queries += [lambda i=i, j=j: pr_test_cond(a, (i,), (j,)) for j in range(2, n + 1) for i in range(1, j)]
        grids = np.cumprod([len(m.spectrum) for m in test.measurements])
        horizon = int(np.sum(grids <= ENUMERATED))
        queries += [
            lambda: enumerate_probability(a, tuple(range(1, horizon + 1))),
            lambda: check_general(LLLInstance(a, (0.5,) * n)),
            lambda: check_symmetric(a, profile=compute_profile(a)),
        ]
    events = [Event(measurements[j], e) for j, e in case.seq]
    return queries + [lambda: pr_state(rho, events), lambda: pr_state_cond(rho, events[: case.cut], events[case.cut :])]


STATE_PROBE = Case(  # one d=8 measurement 0.9e-9 past complete: six repeats exceed tol.prob
    np.eye(8) / 8, (helpers.overcomplete_pair(8, 0.9e-9),), ((0, ("0",)),), ((0, ("0", "1")),) * 6, 2
)
RATIO_PROBE = Case(  # Pr[M2 in {1} | M1 in {12}] reads 2.5e-9 / 2e-9
    helpers.RATIO_PROBE_STATE,
    tuple(helpers.RATIO_PROBE_KRAUS.values()),
    tuple(enumerate(helpers.RATIO_PROBE_EVENTS)),
    tuple(enumerate(helpers.RATIO_PROBE_EVENTS)),
    1,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=80, suppress_health_check=list(HealthCheck))
@given(case=cases())
@example(case=STATE_PROBE)
@example(case=RATIO_PROBE)
def test_an_admitted_input_never_ends_in_an_internal_fault(case):
    try:
        rho = validate_density(case.state)
        measurements = [Measurement(f"M{j + 1}", kraus) for j, kraus in enumerate(case.kraus)]
    except ValidationError:
        return  # refused where it is built
    for query in _queries(rho, measurements, case):
        try:
            query()
        except InternalConsistencyError:
            raise
        except QlllError:
            pass  # refused at admission, conditioned on zero, or past the enumeration cap
