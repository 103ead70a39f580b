"""JSON Schemas for every CLI report and the instance file format.

These are the published output contracts; the test suite validates each
command's output against them with ``jsonschema``.
"""

from __future__ import annotations

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "items": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

_EVENT = {
    "type": "object",
    "properties": {
        "measurement": {"type": "integer", "minimum": 1},
        "in": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["measurement", "in"],
}

INSTANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "dim": {"type": "integer", "minimum": 1},
        "state": _MATRIX,
        "measurements": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "outcomes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                    "kraus": {"type": "array", "items": _MATRIX, "minItems": 1},
                },
                # a nameless measurement reads as M<position>
                "required": ["outcomes", "kraus"],
            },
        },
        "events": {"type": "array", "items": _EVENT},
        "x": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["version", "dim", "state", "measurements"],
}

ERROR_SCHEMA = {
    "type": "object",
    "properties": {
        "error": {
            "type": "object",
            "properties": {
                "type": {"type": "string"},
                "message": {"type": "string"},
                "detail": {"type": "object"},
            },
            "required": ["type", "message"],
        }
    },
    "required": ["error"],
}


def _probability_schema(command: str) -> dict:
    return {
        "type": "object",
        "properties": {
            "command": {"const": command},
            "mode": {"enum": ["state", "test"]},
            "query": {"type": "object"},
            "value": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "required": ["command", "mode", "query", "value"],
    }


PROB_SCHEMA = _probability_schema("prob")
COND_SCHEMA = _probability_schema("cond")

INDEP_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "indep"},
        "query": {
            "type": "object",
            "properties": {
                "i": {"type": "integer"},
                "K": {"type": "array", "items": {"type": "integer"}},
                "J": {"type": "array", "items": {"type": "integer"}},
                "negated": {"type": "boolean"},
            },
            "required": ["i", "K", "negated"],
        },
        "independent": {"type": "boolean"},
        "difference": {"type": "number"},
        "tolerance": {"type": "number"},
    },
    "required": ["command", "query", "independent", "difference"],
}

PROFILE_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "profile"},
        "s": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "d_min": {"type": "integer", "minimum": 0},
        "nind_table": {
            "type": "array",
            "items": {"type": "array", "minItems": 3, "maxItems": 3},
        },
    },
    "required": ["command", "s", "d_min", "nind_table"],
}

_SYMMETRIC = {
    "type": ["object", "null"],
    "properties": {
        "p": {"type": "number"},
        "d_min": {"type": "integer", "minimum": 0},
        "condition_value": {"type": "number"},
        "condition": {"enum": ["satisfied", "boundary", "violated"]},
        "lhs": {"type": "number"},
        "explicit_bound": {"type": "number"},
        "positivity_ok": {"type": ["boolean", "null"]},
        "verdict": {"enum": ["pass", "inconclusive", "boundary", "not-applicable"]},
        "p_max": {"type": "number"},
        "chain_ok": {"type": "boolean"},
    },
    "required": ["p", "d_min", "condition_value", "condition", "verdict", "positivity_ok"],
}

CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "check"},
        "variant": {"enum": ["general", "symmetric"]},
        "report": {
            "type": "object",
            "properties": {
                "assumption_ok": {"type": "array", "items": {"type": "boolean"}},
                "assumption": {"type": "array"},
                "lemma_bounds": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "value": {"type": ["number", "null"]},
                            "x": {"type": "number"},
                            "ok": {"type": ["boolean", "null"]},
                        },
                        "required": ["value", "x"],
                    },
                },
                "lhs": {"type": "number"},
                "rhs": {"type": "number"},
                "bound_ok": {"type": "boolean"},
                "s": {"type": "array", "items": {"type": "integer"}},
                "d_min": {"type": "integer"},
                "symmetric": _SYMMETRIC,
            },
            "required": ["assumption_ok", "lemma_bounds", "lhs", "rhs", "bound_ok", "symmetric"],
        },
        "ok": {"type": "boolean"},
    },
    "required": ["command", "variant", "report", "ok"],
}

SYMMETRIC_CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "check"},
        "variant": {"const": "symmetric"},
        "report": _SYMMETRIC,
        "ok": {"type": "boolean"},
    },
    "required": ["command", "variant", "report", "ok"],
}

SAMPLE_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "sample"},
        "estimate": {"type": "number", "minimum": 0, "maximum": 1},
        "n_samples": {"type": "integer", "minimum": 1},
        "std_error": {"type": "number", "minimum": 0},
        "seed": {"type": "integer"},
        "algorithm": {"type": "string"},
        "exact": {"type": ["number", "null"]},
        "discrepancy_sigma": {"type": ["number", "null"]},
    },
    "required": ["command", "estimate", "n_samples", "std_error", "seed", "algorithm", "exact"],
}

EXAMPLES_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"const": "paper-examples"},
        "results": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "name": {"type": "string"},
                    "description": {"type": "string"},
                    "checks": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "properties": {
                                "label": {"type": "string"},
                                "expected": {"type": "number"},
                                "actual": {"type": "number"},
                                "pass": {"type": "boolean"},
                            },
                            "required": ["label", "expected", "actual", "pass"],
                        },
                    },
                    "all_pass": {"type": "boolean"},
                },
                "required": ["name", "description", "checks", "all_pass"],
            },
        },
        "all_pass": {"type": "boolean"},
    },
    "required": ["command", "results", "all_pass"],
}

COMMAND_SCHEMAS = {
    "prob": PROB_SCHEMA,
    "cond": COND_SCHEMA,
    "indep": INDEP_SCHEMA,
    "profile": PROFILE_SCHEMA,
    "check": CHECK_SCHEMA,
    "sample": SAMPLE_SCHEMA,
    "paper-examples": EXAMPLES_SCHEMA,
    "gen": INSTANCE_SCHEMA,
}
