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


def _digits(value: int) -> int:
    """The decimal digits of *value*, counted without str().

    str() refuses integers past ``sys.get_int_max_str_digits()`` digits.
    """
    digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one below it
    return digits + (abs(value) >= 10**digits)


def _shown(value) -> str:
    """``repr(value)`` for a message, with an integer too long for str() shown by its digit count."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}{_digits(value)}-digit integer>"
        return f"<{type(value).__name__} holding an integer too long to print>"


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
