import json
import re

import jsonschema
import numpy as np
import pytest

from helpers import build_pool
from qlll.errors import ParseError, ValidationError
from qlll.generate import GeneratorKind, GeneratorSpec, generate
from qlll.schemas import INSTANCE_SCHEMA
from qlll.serialize import (
    dumps,
    instance_from_dict,
    instance_to_dict,
    load_path,
    loads,
    matrix_from_json,
    matrix_to_json,
)


def reference_doc():
    return instance_to_dict(generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES)))


def test_round_trip_is_string_identity():
    for a in build_pool(12):
        text = dumps(a, x=(0.25,) * a.n)
        test, assignment, x = loads(text)
        assert dumps(assignment, x=x) == text


def test_round_trip_without_weights():
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_POVM, n=2, local_dim=3, seed=8))
    text = dumps(a)
    test, assignment, x = loads(text)
    assert x is None
    assert dumps(assignment) == text


def test_matrix_wire_format():
    m = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    rows = matrix_to_json(m)
    assert rows == [[[0.5, 0.0], [0.0, 0.5]], [[-0.0, -0.5], [0.5, 0.0]]]
    assert np.array_equal(matrix_from_json(rows), m)


def test_matrix_parse_errors():
    with pytest.raises(ParseError, match="non-empty"):
        matrix_from_json([])
    with pytest.raises(ParseError, match="expected 3"):
        matrix_from_json([[[1.0, 0.0]]], dim=3)
    with pytest.raises(ParseError, match="square"):
        matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ParseError, match="pair"):
        matrix_from_json([[[1.0, 0.0, 0.0]]])
    with pytest.raises(ParseError, match="pair"):
        matrix_from_json([[[True, 0.0]]])


def test_documents_satisfy_schema():
    jsonschema.validate(reference_doc(), INSTANCE_SCHEMA)
    for a in build_pool(6):
        jsonschema.validate(json.loads(dumps(a, x=(0.5,) * a.n)), INSTANCE_SCHEMA)


def test_nameless_measurements_read_as_their_position():
    doc = reference_doc()
    for raw in doc["measurements"]:
        del raw["name"]
    jsonschema.validate(doc, INSTANCE_SCHEMA)
    test, assignment, x = loads(json.dumps(doc))
    assert [m.name for m in test.measurements] == ["M1", "M2"]


@pytest.mark.parametrize("name", [None, [1, 2], 3], ids=["null", "list", "number"])
def test_non_string_measurement_names_are_refused(name):
    # a present name must be a string; it used to load as str(name), e.g. "None"
    doc = reference_doc()
    doc["measurements"][1]["name"] = name
    with pytest.raises(ParseError, match="measurement 2 name must be a string"):
        loads(json.dumps(doc))


def test_test_only_documents():
    doc = reference_doc()
    del doc["events"]
    test, assignment, x = loads(json.dumps(doc))
    assert assignment is None
    assert x is None
    assert test.n == 2


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.pop("version"), "version"),
        (lambda d: d.update(dim="2"), "dim"),
        (lambda d: d.pop("state"), "matrix"),
        (lambda d: d.update(measurements=[]), "measurements"),
        (lambda d: d["measurements"][0].pop("kraus"), "kraus"),
        (lambda d: d["measurements"][0]["kraus"].pop(), "one kraus matrix per outcome"),
        (lambda d: d["measurements"][0].update(outcomes=["0", 1]), "strings"),
        (lambda d: d["events"].append(dict(d["events"][0])), "duplicate"),
        (lambda d: d["events"][0].pop("in"), "each event needs"),
        (lambda d: d["events"][0].update(measurement="1"), "integer"),
        (lambda d: d.update(x=[0.5, True]), "numbers"),
        (lambda d: d.update(x=0.5), "numbers"),
    ],
)
def test_parse_errors(mutate, message):
    doc = reference_doc()
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        loads(json.dumps(doc))


@pytest.mark.parametrize("leaf", ["state", "kraus", "x"])
@pytest.mark.parametrize("value", [10**5000, -(10**5000), 10**5000 - 1], ids=["5001", "minus-5001", "5000"])
def test_integers_past_the_printable_digits_are_parse_errors(leaf, value):
    # str() refuses integers past 4300 digits, so counting them with it raised a raw ValueError
    doc = reference_doc()
    if leaf == "state":
        doc["state"][0][0][0] = value
    elif leaf == "kraus":
        doc["measurements"][0]["kraus"][0][0][0][0] = value
    else:
        doc["x"] = [value, 0.5]
    digits = 5000 if value == 10**5000 - 1 else 5001
    with pytest.raises(ParseError, match=f"^a {digits}-digit integer is beyond float range$"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version=10**5000), "unsupported format version <5001-digit integer>"),
        (lambda d: d.update(version=[10**5000]), "version <list holding an integer too long to print>"),
        (lambda d: d.update(dim=10**5000), "matrix has 2 rows, expected <5001-digit integer>"),
        (lambda d: d.update(dim=-(10**5000)), "dim must be a positive integer, got <negative 5001-digit integer>"),
        (lambda d: d["events"][0].update(measurement=10**5000), "event references M<5001-digit integer> but"),
        (lambda d: d["events"][0].update(measurement=[10**5000]), "index must be an integer, got <list holding"),
    ],
    ids=["version", "version-list", "dim", "negative-dim", "event-measurement", "event-measurement-list"],
)
def test_integer_fields_past_the_printable_digits_are_parse_errors(mutate, message):
    # str() refuses integers past 4300 digits, so each message shows their digit count instead
    doc = reference_doc()
    mutate(doc)
    with pytest.raises(ParseError, match=re.escape(message)):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(version=True), "version"),
        (lambda d: d.update(dim=True), "dim"),
        (lambda d: d["events"][0].update(measurement=True), "integer"),
    ],
    ids=["version", "dim", "event-measurement"],
)
def test_json_booleans_are_not_integers(mutate, message):
    doc = reference_doc()
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        loads(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["measurements"].__setitem__(0, "M1"), "measurement 1 must be an object"),
        (lambda d: d.update(events={"1": ["0"]}), "events must be an array"),
        (lambda d: d["events"][0].update({"in": "0"}), "event 'in' must be an array"),
        (lambda d: d["measurements"][0].update(outcomes=[], kraus=[]), "at least one outcome"),
        (lambda d: d["measurements"][0].update(outcomes=["0", "0"]), "duplicate outcome labels"),
        (lambda d: d["measurements"][0].update(outcomes=["", "1"]), "non-empty"),
    ],
    ids=["measurement", "events", "event-in", "no-outcomes", "duplicate-label", "empty-label"],
)
def test_instance_shape_errors(mutate, message):
    doc = reference_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=message):
        loads(json.dumps(doc))


def test_top_level_must_be_an_object():
    with pytest.raises(ParseError, match="must be a JSON object"):
        loads(json.dumps([reference_doc()]))


def test_stray_event_outcome_rejected():
    doc = reference_doc()
    doc["events"][0]["in"] = ["0", "zebra"]
    with pytest.raises(Exception) as exc:
        loads(json.dumps(doc))
    assert "zebra" in str(exc.value)


@pytest.mark.parametrize("index", [0, -1, 3])
def test_out_of_range_event_index_rejected(index):
    doc = reference_doc()  # two measurements
    doc["events"][0]["measurement"] = index
    with pytest.raises(ValidationError, match=f"M{index} but the test has 2"):
        loads(json.dumps(doc))


def test_not_json_and_missing_file(tmp_path):
    with pytest.raises(ParseError, match="invalid JSON"):
        loads("{nope")
    with pytest.raises(ParseError, match="cannot read"):
        load_path(str(tmp_path / "absent.json"))
    target = tmp_path / "inst.json"
    target.write_text(dumps(generate(GeneratorSpec(kind=GeneratorKind.PAPER_EXAMPLES))))
    test, assignment, x = load_path(str(target))
    assert assignment is not None and assignment.n == 2


def test_malformed_text_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="invalid JSON"):
        loads("[" * 200000)  # nested past the recursion limit
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="cannot read"):
        load_path(str(not_utf8))
