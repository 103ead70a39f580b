"""Exception hierarchy.

Every deliberate failure carries a stable ``code`` string (surfaced in CLI
error objects) and a ``detail`` dict with the offending numbers, so callers
can report residuals instead of bare booleans.
"""

from __future__ import annotations

import math
import numbers


def _plain(value):
    # error detail must survive json.dumps as standard JSON: numpy scalars
    # sneak in easily, and NaN and infinity have no JSON spelling
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, numbers.Complex):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class QlllError(Exception):
    """Base class for every error this library raises on purpose."""

    code = "Error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail

    def to_json(self) -> dict:
        return {
            "type": self.code,
            "message": str(self),
            "detail": {k: _plain(v) for k, v in self.detail.items()},
        }


class ValidationError(QlllError):
    """Bad input: malformed data or a violated construction precondition."""

    code = "Validation"


class NotFiniteError(ValidationError):
    code = "NotFinite"


class NotHermitianError(ValidationError):
    code = "NotHermitian"


class NotPositiveError(ValidationError):
    code = "NotPositive"


class BadTraceError(ValidationError):
    code = "BadTrace"


class NotCompleteError(ValidationError):
    code = "NotComplete"


class DifferentMeasurementsError(ValidationError):
    code = "DifferentMeasurements"


class DimensionMismatchError(ValidationError):
    code = "DimensionMismatch"


class MissingAssignmentError(ValidationError):
    code = "MissingAssignment"


class BadOrderingError(ValidationError):
    code = "BadOrdering"


class BadPError(ValidationError):
    code = "BadP"


class DimensionCapError(ValidationError):
    code = "DimensionCapExceeded"


class ParseError(ValidationError):
    code = "Parse"


class ConditionOnZeroError(QlllError):
    """Conditioning on an event sequence whose probability is numerically zero."""

    code = "ConditionOnZero"


class EnumerationCapError(QlllError):
    code = "EnumerationCapExceeded"


class InternalConsistencyError(QlllError):
    """A computed quantity violates a bound that is a theorem; indicates a bug."""

    code = "InternalConsistency"
