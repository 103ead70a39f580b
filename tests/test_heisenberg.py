"""Heisenberg-picture referee for the test-relative probabilities.

The library's test-relative routes push states forward through
``SuperOperator.__call__`` and read only the last event's effect there
(``SuperOperator.trace_of``).  This module pulls each effect back instead,
through the adjoint channels ``C^dagger(F) = sum_m K_m^dagger F K_m``
(Nielsen & Chuang, section 8.2; Watrous, *The Theory of Quantum
Information*, section 2.2), with every Kraus operator read straight from
``Measurement.kraus``:

- ``F_{k,k-1} = sum_{m in E_k} K_m^dagger K_m``, the effect of the event at k;
- ``F_{k,l} = sum_m K_m^dagger F_{k,l+1} K_m`` over slot l+1's whole spectrum;
- the marginal Pr[E_k] is ``tr(F_{k,0} rho)``;
- the pair (k, l) is ``tr(F_{k,l} sigma_l) / tr(sigma_l)``, where sigma_l is
  rho through the miss Kraus operators of slots 1..l.
"""

import numpy as np
import pytest

from helpers import build_pool
from qlll.errors import ConditionOnZeroError
from qlll.events import complement
from qlll.generate import GeneratorKind, GeneratorSpec, generate
from qlll.independence import _decide, _PrefixWalk
from qlll.linalg import DEFAULT_TOL
from qlll.probability import _test_cond, pr_test_marginal

AGREE = 1e-12

_DEEP = (
    dict(kind=GeneratorKind.RANDOM_PROJECTIVE, n=16, local_dim=3, outcomes=3),
    dict(kind=GeneratorKind.RANDOM_POVM, n=16, local_dim=3, outcomes=3),
    dict(kind=GeneratorKind.DEPENDENT_CHAIN, n=24, local_dim=2),
    dict(kind=GeneratorKind.TENSOR_PRODUCT, n=6, local_dim=2),
)


def _kraus(a, i, labels=None):
    """Slot *i*'s Kraus operators for *labels*, in spectrum order; all of them by default."""
    m = a.test.measurements[i - 1]
    return [m.kraus[label] for label in m.spectrum if labels is None or label in labels]


def _pull_back(F, kraus):
    return sum(k.conj().T @ F @ k for k in kraus)


def _push_forward(sigma, kraus):
    return sum(k @ sigma @ k.conj().T for k in kraus)


def heisenberg(a):
    """``(marginals, pairs)``: ``marginals[k]`` and ``pairs[(k, l)] = (value, tr(sigma_l))``."""
    rho = a.test.rho.matrix
    sigmas = [rho]
    for i in range(1, a.n):
        sigmas.append(_push_forward(sigmas[-1], _kraus(a, i, complement(a.events[i]).outcomes)))
    marginals, pairs = {}, {}
    for k in range(1, a.n + 1):
        effect = _pull_back(np.eye(rho.shape[0], dtype=complex), _kraus(a, k, a.events[k].outcomes))
        for l in range(k - 1, 0, -1):
            denom = np.trace(sigmas[l]).real
            pairs[(k, l)] = (np.trace(effect @ sigmas[l]).real / denom, denom)
            effect = _pull_back(effect, _kraus(a, l))
        marginals[k] = np.trace(effect @ rho).real
    return marginals, pairs


def _pool():
    deep = [generate(GeneratorSpec(seed=seed, **shape)) for shape in _DEEP for seed in range(3)]
    return build_pool(40) + deep


@pytest.fixture(scope="module")
def pool():
    return _pool()


def test_marginals_and_conditionals_match_the_heisenberg_picture(pool):
    tol = DEFAULT_TOL
    decided = 0
    for t, a in enumerate(pool):
        marginals, pairs = heisenberg(a)
        walk = _PrefixWalk(a)
        for k in range(1, a.n + 1):
            marginal = pr_test_marginal(a, (k,))
            assert abs(marginal - marginals[k]) <= AGREE, (t, k)
            assert abs(walk.marginal(a, tol) - marginals[k]) <= AGREE, (t, k)
            for l in range(1, k):
                value, denom = pairs[(k, l)]
                read = walk.conditional(a, l, tol)
                if abs(denom - tol.prob) <= AGREE:
                    continue  # the zero-denominator gate is too close to call
                if denom < tol.prob:
                    assert read is None, (t, k, l)
                    with pytest.raises(ConditionOnZeroError):
                        _test_cond(a, tuple(range(1, l + 1)), (k,), True, tol)
                    continue
                decided += 1
                conditional = _test_cond(a, tuple(range(1, l + 1)), (k,), True, tol)
                assert abs(conditional - value) <= AGREE, (t, k, l)
                assert abs(read - value) <= AGREE, (t, k, l)
                # the verdict is_neg_independent would give, from the values it reads
                difference = abs(value - marginals[k])
                if abs(difference - tol.ind) > AGREE:
                    assert _decide(conditional, marginal, tol)[1] == (difference <= tol.ind), (t, k, l)
            walk.advance(a)
    assert decided > 1000


def test_the_pool_exercises_non_hermitian_kraus_operators(pool):
    # a referee that swapped K and K^dagger would agree on Hermitian Kraus
    # operators; the POVM instances make that swap visible
    assert any(
        not np.allclose(k, k.conj().T)
        for a in pool
        for m in a.test.measurements
        for k in m.kraus.values()
    )
