"""JSON instance files.

A matrix is an array of rows, each entry a ``[re, im]`` pair.  An instance
file carries the state, the ordered measurement list, and optionally one
event per slot plus a weight vector::

    {"version": 1, "dim": 2,
     "state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
     "measurements": [{"name": "M1", "outcomes": ["0", "1"],
                       "kraus": [<matrix>, <matrix>]}, ...],
     "events": [{"measurement": 1, "in": ["0"]}, ...],
     "x": [0.5, 0.5]}

Serialization goes through ``repr``-exact floats, so parse(serialize(...))
reproduces every matrix bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ParseError
from .events import Event, Measurement, resolve_event_spec
from .linalg import DEFAULT_TOL, ToleranceConfig, validate_density
from .probability import Test, TestEventAssignment

FORMAT_VERSION = 1


def _integer(value: Any) -> bool:
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: Any) -> bool:
    return _integer(value) or isinstance(value, float)


def _float(value: Any) -> float:
    """The float of a JSON number; an integer beyond float range is a parse error."""
    try:
        return float(value)
    except OverflowError:
        # counted without str(), which refuses integers past sys.get_int_max_str_digits()
        digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one below it
        digits += abs(value) >= 10**digits
        raise ParseError(f"a {digits}-digit integer is beyond float range")


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def matrix_from_json(rows: Any, dim: int | None = None) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty array of rows")
    size = len(rows)
    if dim is not None and size != dim:
        raise ParseError(f"matrix has {size} rows, expected {dim}")
    out = np.empty((size, size), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise ParseError(f"row {r} must hold {size} entries (square matrix)")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_number(part) for part in entry)
            ):
                raise ParseError(f"entry ({r},{c}) must be a [re, im] pair of numbers")
            out[r, c] = complex(_float(entry[0]), _float(entry[1]))
    return out


def instance_to_dict(
    a: TestEventAssignment | Test,
    x: tuple[float, ...] | list[float] | None = None,
) -> dict:
    """Serialize a test (with its assigned events, if any) to the wire dict."""
    if isinstance(a, Test):
        test, events = a, {}
    else:
        test, events = a.test, a.events
    doc: dict = {
        "version": FORMAT_VERSION,
        "dim": test.rho.dim,
        "state": matrix_to_json(test.rho.matrix),
        "measurements": [
            {
                "name": m.name,
                "outcomes": list(m.spectrum),
                "kraus": [matrix_to_json(m.kraus[lab]) for lab in m.spectrum],
            }
            for m in test.measurements
        ],
    }
    if events:
        doc["events"] = [
            {"measurement": i, "in": e.sorted_outcomes()} for i, e in sorted(events.items())
        ]
    if x is not None:
        doc["x"] = [float(v) for v in x]
    return doc


def instance_from_dict(
    doc: Any, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Test, TestEventAssignment | None, tuple[float, ...] | None]:
    """Parse and validate the wire dict; returns (test, assignment-or-None, x-or-None)."""
    if not isinstance(doc, dict):
        raise ParseError("instance file must be a JSON object")
    version = doc.get("version")
    if not _integer(version) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    dim = doc.get("dim")
    if not _integer(dim) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    state = validate_density(matrix_from_json(doc.get("state"), dim), tol)

    raw_measurements = doc.get("measurements")
    if not isinstance(raw_measurements, list) or not raw_measurements:
        raise ParseError("instance file needs a non-empty measurements array")
    measurements = []
    for pos, raw in enumerate(raw_measurements, start=1):
        if not isinstance(raw, dict):
            raise ParseError(f"measurement {pos} must be an object")
        outcomes = raw.get("outcomes")
        kraus = raw.get("kraus")
        if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
            raise ParseError(f"measurement {pos} outcomes must be an array of strings")
        if not isinstance(kraus, list) or len(kraus) != len(outcomes):
            raise ParseError(
                f"measurement {pos} must carry exactly one kraus matrix per outcome"
            )
        pairs = [
            (label, matrix_from_json(mat, dim)) for label, mat in zip(outcomes, kraus)
        ]
        name = raw.get("name", f"M{pos}")
        if not isinstance(name, str):
            raise ParseError(f"measurement {pos} name must be a string")
        measurements.append(Measurement(name, pairs, tol))

    test = Test(state, tuple(measurements))

    assignment = None
    if "events" in doc:
        raw_events = doc["events"]
        if not isinstance(raw_events, list):
            raise ParseError("events must be an array")
        events: dict[int, Event] = {}
        for raw in raw_events:
            if not isinstance(raw, dict) or "measurement" not in raw or "in" not in raw:
                raise ParseError("each event needs 'measurement' (1-based) and 'in' (labels)")
            idx = raw["measurement"]
            labels = raw["in"]
            if not _integer(idx):
                raise ParseError(f"event measurement index must be an integer, got {idx!r}")
            if not isinstance(labels, list) or not all(isinstance(o, str) for o in labels):
                raise ParseError("event 'in' must be an array of outcome labels")
            if idx in events:
                raise ParseError(f"duplicate event for measurement {idx}")
            events[idx] = resolve_event_spec(measurements, idx, frozenset(labels))
        assignment = TestEventAssignment(test, events)

    x = None
    if "x" in doc:
        raw_x = doc["x"]
        if not isinstance(raw_x, list) or not all(_number(v) for v in raw_x):
            raise ParseError("x must be an array of numbers")
        x = tuple(_float(v) for v in raw_x)

    return test, assignment, x


def dumps(a: TestEventAssignment | Test, x=None) -> str:
    return json.dumps(instance_to_dict(a, x), separators=(",", ":"))


def loads(text: str, tol: ToleranceConfig = DEFAULT_TOL):
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and integers past the digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")
    return instance_from_dict(doc, tol)


def load_path(path: str, tol: ToleranceConfig = DEFAULT_TOL):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read instance file {path!r}: {exc}")
    return loads(text, tol)
