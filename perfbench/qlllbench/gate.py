"""Correctness gate: checks every op's output outside the timed region.

An op fails when it raised, when its summary differs from the golden
output recorded for ``GOLDEN_SEED``, when it differs from the first output
of the same item in this run, or when a seed-independent check of its
workload fails (including the check of the item's first output).
"""

from __future__ import annotations

import json
from pathlib import Path

FLOAT_TOL = 1e-9
GOLDEN_SEED = 1  # the seed golden outputs are recorded at, and compared at
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def differences(actual, expected, path: str = "") -> list[str]:
    """Paths where *actual* and *expected* differ: floats beyond ``FLOAT_TOL``, anything else exactly."""
    at = path or "<root>"
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
        same = type(actual) is type(expected) and actual == expected
        return [] if same else [f"{at}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(expected, int) and isinstance(actual, int):
            return [] if actual == expected else [f"{at}: {actual!r} != {expected!r}"]
        return [] if abs(actual - expected) <= FLOAT_TOL else [f"{at}: {actual!r} vs {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{at}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += differences(actual[key], expected[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{at}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += differences(a, e, f"{path}[{i}]")
        return out
    return [] if actual == expected else [f"{at}: {actual!r} != {expected!r}"]


def load_golden(workload: str) -> dict:
    """Golden views by item id, recorded at ``GOLDEN_SEED``."""
    path = GOLDEN_DIR / f"{workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["seed"] != GOLDEN_SEED:
        raise ValueError(f"{path} was recorded at seed {doc['seed']}, not {GOLDEN_SEED}")
    return doc["items"]


def item_check(workload, item, out) -> list[str]:
    """Seed-independent checks of an item's first raw output."""
    try:
        return workload.check_item(item, out)
    except Exception as exc:  # a raising check is a failed check, reported with the op
        return [f"item check raised {type(exc).__name__}: {exc}"]


def check(workload, pool, records, item_errors, golden) -> tuple[int, list[str]]:
    """Count failed ops.

    *records* holds ``(item index, summary or None, error text or None)``
    per op; *item_errors* maps item index to what ``item_check`` found in
    that item's first output; *golden* is ``load_golden``'s result, or None
    to skip the golden comparison.  Returns the failure count and one
    message per failure.
    """
    reference = {}
    failed = 0
    messages = []
    for op, (index, summary, error) in enumerate(records):
        item = pool[index]
        if error is not None:
            errors = [error]
        else:
            reference.setdefault(index, summary)
            errors = list(item_errors.get(index, []))
            errors += [f"repeat differs: {d}" for d in differences(summary, reference[index])]
            if golden is not None:
                if item.id not in golden:
                    errors.append("no golden output recorded")
                else:
                    view = workload.golden_view(summary)
                    errors += [f"golden: {d}" for d in differences(view, golden[item.id])]
            try:
                errors += workload.check_op(item, summary)
            except Exception as exc:
                errors.append(f"op check raised {type(exc).__name__}: {exc}")
        if errors:
            failed += 1
            messages.append(f"op {op} ({item.id}): " + "; ".join(errors[:3]))
    return failed, messages
