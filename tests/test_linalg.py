import numpy as np
import pytest

from qlll.errors import (
    BadTraceError,
    DimensionCapError,
    DimensionMismatchError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    ValidationError,
)
from qlll.linalg import (
    DEFAULT_DIM_CAP,
    DEFAULT_TOL,
    DIM_CAP_ENV,
    ToleranceConfig,
    as_matrix,
    check_dimension,
    dimension_cap,
    trace,
    validate_density,
)


def test_default_tolerances():
    assert DEFAULT_TOL.herm == 1e-10
    assert DEFAULT_TOL.psd == 1e-9
    assert DEFAULT_TOL.trace == 1e-10
    assert DEFAULT_TOL.complete == 1e-9
    assert DEFAULT_TOL.prob == 1e-9
    assert DEFAULT_TOL.ind == 1e-7


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValidationError):
        ToleranceConfig(prob=0.0)
    with pytest.raises(ValidationError):
        ToleranceConfig(herm=-1e-12)
    # an infinite tolerance passed every check: prob=inf read every hypothesis row as ok
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="tolerance 'prob' must be finite and strictly positive"):
            ToleranceConfig(prob=bad)


def test_tolerance_config_refuses_bools_and_strings():
    # ToleranceConfig(prob=True) used to read prob = 1
    for bad in (True, np.True_, "1e-9", None):
        with pytest.raises(ValidationError, match="tolerance 'prob' .* is not a real number"):
            ToleranceConfig(prob=bad)
    loose = ToleranceConfig(prob=np.float32(1e-6), ind=1)
    assert (loose.prob, loose.ind) == (float(np.float32(1e-6)), 1.0)
    assert (type(loose.prob), type(loose.ind)) == (float, float)


def test_tolerance_config_frozen():
    with pytest.raises(Exception):
        DEFAULT_TOL.prob = 1.0  # type: ignore[misc]


def test_as_matrix_accepts_lists_and_freezes():
    m = as_matrix([[1, 0], [0, 1]])
    assert m.dtype == np.complex128
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        as_matrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatchError):
        as_matrix([1, 2, 3])


def test_as_matrix_rejects_non_numeric_entries():
    with pytest.raises(ValidationError, match="cannot interpret input as a complex matrix"):
        as_matrix([[1, "x"], [0, 1]])
    with pytest.raises(ValidationError, match="cannot interpret input as a complex matrix"):
        as_matrix([[10**400]])  # beyond float range


def test_as_matrix_rejects_non_finite():
    with pytest.raises(NotFiniteError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(NotFiniteError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_trace_against_numpy():
    rng = np.random.default_rng(11)
    a = as_matrix(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert trace(a) == pytest.approx(complex(np.trace(a)))


def test_validate_density_accepts_pure_qubit():
    rho = validate_density([[0.5, 0.5], [0.5, 0.5]])
    assert rho.dim == 2
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def test_validate_density_hermitizes_tiny_asymmetry():
    # asymmetry below the herm tolerance is averaged away, not rejected
    rho = validate_density([[0.5, 0.5 + 1e-13], [0.5 - 1e-13, 0.5]])
    assert np.allclose(rho.matrix, rho.matrix.conj().T)


def test_validate_density_rejects_non_hermitian():
    with pytest.raises(NotHermitianError) as exc:
        validate_density([[0.0, 1.0], [0.0, 1.0]])
    assert exc.value.code == "NotHermitian"
    assert exc.value.to_json()["type"] == "NotHermitian"


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveError):
        validate_density([[1.5, 0.0], [0.0, -0.5]])


def test_validate_density_bounds_the_negative_mass():
    # one eigenvalue just inside -tol.psd passes; eight of them sum past it
    one = np.diag([-0.9e-9] + [(1 + 0.9e-9) / 15] * 15)
    assert np.array_equal(validate_density(one).matrix, one)
    eight = np.diag([-0.9e-9] * 8 + [1 / 8 + 0.9e-9] * 8)
    with pytest.raises(NotPositiveError) as exc:
        validate_density(eight)
    assert exc.value.detail["min_eigenvalue"] == pytest.approx(-0.9e-9)
    assert exc.value.detail["negative_mass"] == pytest.approx(-7.2e-9)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(BadTraceError):
        validate_density([[0.6, 0.0], [0.0, 0.6]])


def test_dimension_cap_default(monkeypatch):
    monkeypatch.delenv(DIM_CAP_ENV, raising=False)
    assert dimension_cap() == DEFAULT_DIM_CAP == 64
    check_dimension(64)
    with pytest.raises(DimensionCapError) as exc:
        check_dimension(65)
    assert exc.value.code == "DimensionCapExceeded"


def test_dimension_cap_env_override(monkeypatch):
    monkeypatch.setenv(DIM_CAP_ENV, "8")
    assert dimension_cap() == 8
    with pytest.raises(DimensionCapError):
        check_dimension(9)
    monkeypatch.setenv(DIM_CAP_ENV, "not-a-number")
    with pytest.raises(ParseError):
        dimension_cap()
    monkeypatch.setenv(DIM_CAP_ENV, "0")
    with pytest.raises(ParseError):
        dimension_cap()
