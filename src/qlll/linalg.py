"""Dense complex linear algebra and physical-validity checks.

All matrices are square ``numpy.complex128`` arrays.  Arrays entering through
:func:`as_matrix` are copied, checked for finiteness, and frozen
(``writeable=False``), so validated values can be shared freely across
threads.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    BadTraceError,
    DimensionCapError,
    DimensionMismatchError,
    NotFiniteError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    ValidationError,
)

DEFAULT_DIM_CAP = 64
DIM_CAP_ENV = "QLLL_DIM_CAP"


def _real(value, what: str) -> float:
    """*value* as a float: ints and numpy floats pass; bools and strings do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} {value!r} is not a real number")
    return float(value)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by validity checks and probability queries.

    Attributes
    ----------
    herm : float
        Max-norm slack for Hermiticity checks and imaginary parts of traces.
    psd : float
        How far below zero an eigenvalue may drift before the matrix is
        rejected as not positive semidefinite.
    trace : float
        Slack for the unit-trace condition on states.
    complete : float
        Max-norm slack for the measurement completeness relation.
    prob : float
        Probabilities may stray this far outside [0, 1] before being treated
        as an internal inconsistency; values at most this size count as zero
        when they appear in a conditioning denominator.
    ind : float
        Two conditional probabilities closer than this are considered equal
        by independence queries.
    """

    herm: float = 1e-10
    psd: float = 1e-9
    trace: float = 1e-10
    complete: float = 1e-9
    prob: float = 1e-9
    ind: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f"tolerance {f.name!r}")
            if not 0 < value < math.inf:  # an infinite tolerance would pass every check
                raise ValidationError(f"tolerance {f.name!r} must be finite and strictly positive, got {value!r}")
            object.__setattr__(self, f.name, value)


DEFAULT_TOL = ToleranceConfig()


def dimension_cap() -> int:
    """Current Hilbert-space dimension cap (env ``QLLL_DIM_CAP``, default 64).

    The variable is read on every call, not once at import, so a cap set
    after import (as the test suite does) takes effect.  That costs one
    lookup per validated matrix, which is off the hot path.
    """
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ParseError(f"{DIM_CAP_ENV} must be positive, got {cap}")
    return cap


def check_dimension(dim: int, sites: int = 1) -> None:
    """Refuse ``dim**sites`` above the cap, multiplying site by site so that no power past it is formed."""
    cap, total = dimension_cap(), 1
    for _ in range(sites):
        total *= dim
        if total > cap:
            space = f"dimension {dim}" if sites == 1 else f"local_dim {dim} on {sites} sites"
            raise DimensionCapError(
                f"{space} exceeds the cap {cap} (set {DIM_CAP_ENV} to raise it)",
                dim=dim,
                sites=sites,
                cap=cap,
            )


def as_matrix(data) -> np.ndarray:
    """Copy *data* into a frozen square ``complex128`` matrix.

    Raises
    ------
    DimensionMismatchError
        If the input is not a non-empty square 2-D array.
    NotFiniteError
        If any entry has a NaN or infinite real or imaginary part.
    """
    try:
        m = np.array(data, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot interpret input as a complex matrix: {exc}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(
            f"expected a non-empty square matrix, got shape {m.shape}", shape=list(m.shape)
        )
    if not np.isfinite(m).all():
        raise NotFiniteError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def trace(a: np.ndarray) -> complex:
    return complex(np.trace(a))


@dataclass(frozen=True)
class DensityOperator:
    """A validated unit-trace density operator; build it with :func:`validate_density`."""

    matrix: np.ndarray
    _negative: float = field(default=0.0, compare=False, repr=False)  # the sum of its negative eigenvalues

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return self is other or np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self.dim)  # equal states have equal dimensions

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the matrix, computed when first read; both arrays
        are read-only, so every reader shares them."""
        values, vectors = np.linalg.eigh(self.matrix)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors


# finite entries near the float limit overflow to inf in the residuals and
# the trace, which the checks then reject without a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def validate_density(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> DensityOperator:
    """Check Hermiticity, positivity and unit trace; return a ``DensityOperator``.

    Positivity is decided on the eigenvalues of the hermitized matrix
    ``(M + M^dagger)/2`` so the check is well-posed under rounding: their
    negative part may sum to no less than ``-tol.psd``, because an event can
    select every negative eigenvalue at once.

    Raises
    ------
    NotHermitianError, NotPositiveError, BadTraceError
        With the offending residual in ``detail``.
    """
    m = as_matrix(matrix)
    check_dimension(m.shape[0])
    herm_residual = float(np.abs(m - m.conj().T).max())
    if herm_residual > tol.herm:
        raise NotHermitianError(
            f"matrix is not Hermitian: max residual {herm_residual:.3e} > {tol.herm:.1e}",
            residual=herm_residual,
        )
    # halved before the sum, so no entry overflows to inf on its way to eigvalsh
    hermitized = m / 2 + m.conj().T / 2
    eigenvalues = np.linalg.eigvalsh(hermitized)
    lowest = float(eigenvalues[0])
    negative = float(eigenvalues[eigenvalues < 0].sum())
    if negative < -tol.psd:
        raise NotPositiveError(
            f"matrix has negative eigenvalues summing to {negative:.3e}, below -{tol.psd:.1e}",
            min_eigenvalue=lowest,
            negative_mass=negative,
        )
    tr = np.trace(m)
    if abs(tr.imag) > tol.herm:
        raise BadTraceError(
            f"trace has imaginary part {tr.imag:.3e}", trace_imag=float(tr.imag)
        )
    tr_re = float(tr.real)
    if abs(tr_re - 1.0) > tol.trace:
        raise BadTraceError(
            f"full state must have unit trace, got {tr_re!r}", trace=tr_re
        )
    return DensityOperator(matrix=m, _negative=negative)
