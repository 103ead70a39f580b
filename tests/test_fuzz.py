"""Fuzzed instance files and flag values through the CLI's output contract.

Whatever the input, ``qlll`` exits 0, 1 or 2 and prints exactly one JSON
document on stdout, valid against its schema, without letting a warning
escape.  Instance files are mutated leaf by leaf and structurally (a leaf or
container replaced, or a key or item deleted); flag values are mutated one
flag at a time across the six instance verbs.  The examples are derandomized
and bounded, so the suite runs the same cases in about a second.
"""

import contextlib
import io
import json
import warnings

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qlll import cli
from qlll.generate import GeneratorKind, GeneratorSpec, generate
from qlll.schemas import COMMAND_SCHEMAS, ERROR_SCHEMA, SYMMETRIC_CHECK_SCHEMA
from qlll.serialize import instance_to_dict

BASE = instance_to_dict(
    generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=3, local_dim=2, seed=1)), (0.3, 0.3, 0.3)
)
DELETE = object()
# JSON values that break a leaf or a container; 1e308 and 10**400 are the
# near-limit entry and the integer beyond float range that once escaped as a
# numpy warning and an OverflowError
VALUES = (None, True, False, -1, 0, 1.5, 1e308, -1e308, 10**400, "", "x", [], [[]], {}, DELETE)

# each instance verb with flags that are valid for BASE
VERBS = (
    ("prob", {"--K": "1,3"}),
    ("prob", {"--mode": "state", "--seq": "M1=0;M2 in {0,1}"}),
    ("cond", {"--K": "1", "--L": "2,3"}),
    ("cond", {"--mode": "state", "--K": "M1=0", "--L": "M3=1"}),
    ("indep", {"--i": "3", "--K": "1,2", "--J": "1"}),
    ("indep", {"--i": "3", "--K": "1,2", "--neg": None}),
    ("profile", {}),
    ("check", {}),
    ("check", {"--x": "0.3,0.3,0.3"}),
    ("check", {"--variant": "symmetric", "--p": "0.5"}),
    ("sample", {"--n": "40", "--seed": "1"}),
    ("sample", {"--K": "2", "--n": "40", "--seed": "1"}),
)
FLAGS = ("--K", "--L", "--J", "--x", "--p", "--seq", "--i")
FLAG_VALUES = (
    "", " ", ",", "abc", "-1", "0", "1", "2", "3", "4", "1.5", "2.0", "nan", "inf", "-inf", "1e308",
    "1" + "0" * 400, "3,1", "1,1", "1,2,3,4", "0.3", "0.3,0.3", "0,0.3,0.3", "2,0.3,0.3",
    "M1=0", "M9=0", "M1=7", "M1 in {", "M1 in {}", "full(M2)", "empty(M1);M2=1", ";",
)


def _paths(node, path=()):
    """Every position in *node*: the root's children, their children, and so on."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = tuple(_paths(BASE))


def _mutated(mutations) -> dict:
    doc = json.loads(json.dumps(BASE))
    for path, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this position
    return doc


def _argv(verb: int, path: str, flag: str | None = None, value: str | None = None) -> list[str]:
    name, flags = VERBS[verb]
    argv = [name, "--instance", path]
    if flag is not None:
        flags = {**flags, flag: value}
    for f, v in flags.items():
        argv += [f] if v is None else [f, v]
    return argv


# validators built once: jsonschema.validate checks the schema itself on every call
VALIDATORS = {
    name: jsonschema.validators.validator_for(schema)(schema)
    for name, schema in {**COMMAND_SCHEMAS, "error": ERROR_SCHEMA, "symmetric": SYMMETRIC_CHECK_SCHEMA}.items()
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_contract(argv: list[str]) -> None:
    """Run the CLI on *argv* and check its exit code, its one document and its warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert code in (0, 1, 2), argv
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1 and err.getvalue() == "", argv
    doc = json.loads(text, parse_constant=_reject_constant)
    if "error" in doc:
        assert code in (1, 2), argv
    schema = "error" if "error" in doc else "symmetric" if doc.get("variant") == "symmetric" else doc["command"]
    VALIDATORS[schema].validate(doc)


FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
mutation = st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(mutations=st.lists(mutation, min_size=1, max_size=2), verb=st.integers(0, len(VERBS) - 1))
@example(mutations=[(("state", 0, 0, 0), 10**400)], verb=7)
@example(mutations=[(("measurements", 0, "kraus", 0, 0, 0, 0), 10**400)], verb=7)
@example(mutations=[(("x", 0), 10**400)], verb=7)
@example(mutations=[(("measurements", 0, "kraus", 0, 0, 0, 0), 1e308)], verb=7)
@example(mutations=[(("state", 0, 0, 0), 1e308)], verb=7)
@example(mutations=[(("state", 0, 1, 0), 1e308), (("state", 1, 0, 0), 1e308)], verb=7)
@example(mutations=[(("state", 0, 0, 0), 1e308), (("state", 1, 1, 0), 1e308)], verb=7)
@example(mutations=[(("state", 0, 1, 0), 1e308), (("state", 1, 0, 0), -1e308)], verb=7)
def test_mutated_instance_files_keep_the_output_contract(fuzz_dir, mutations, verb):
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(_mutated(mutations)))
    _run_contract(_argv(verb, str(path)))


@FUZZ
@given(
    verb=st.integers(0, len(VERBS) - 1),
    flag=st.sampled_from(FLAGS),
    value=st.sampled_from(FLAG_VALUES) | st.text(max_size=6),
)
def test_mutated_flag_values_keep_the_output_contract(fuzz_dir, verb, flag, value):
    path = fuzz_dir / "base.json"
    if not path.exists():
        path.write_text(json.dumps(BASE))
    _run_contract(_argv(verb, str(path), flag, value))
