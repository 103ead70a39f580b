import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from helpers import count_channel_work
from test_lll import two_qubit_instance
from qlll import cli
from qlll.generate import Check, GeneratorKind, GeneratorSpec, WorkedExample, generate
from qlll.schemas import (
    COMMAND_SCHEMAS,
    ERROR_SCHEMA,
    INSTANCE_SCHEMA,
    SYMMETRIC_CHECK_SCHEMA,
)
from qlll.serialize import dumps


def run(capsys, *argv):
    """Invoke the CLI in process and validate the output contract."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    if "error" in doc:
        jsonschema.validate(doc, ERROR_SCHEMA)
    elif "command" not in doc:
        jsonschema.validate(doc, INSTANCE_SCHEMA)  # gen without --out prints the instance
    elif doc.get("variant") == "symmetric":
        jsonschema.validate(doc, SYMMETRIC_CHECK_SCHEMA)
    else:
        jsonschema.validate(doc, COMMAND_SCHEMAS[doc["command"]])
    return code, doc


@pytest.fixture(scope="module")
def ref_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "reference.json"
    code = cli.main(["gen", "--kind", "paper-examples", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def tensor_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tensor.json"
    path.write_text(dumps(two_qubit_instance(), x=(0.1, 0.1)) + "\n")
    return str(path)


def ref_doc(ref_file):
    with open(ref_file, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_prob_state_mode(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file, "--mode", "state",
                    "--seq", "M1=1;M2=0")
    assert code == 0
    assert doc["value"] == pytest.approx(0.25, abs=1e-9)
    assert doc["query"]["seq"][0] == {"measurement": "M1", "in": ["1"]}


def test_prob_test_mode(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file, "--K", "1,2")
    assert code == 0
    assert doc["value"] == pytest.approx(0.25, abs=1e-9)


def test_prob_missing_arguments(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file, "--mode", "state")
    assert code == 2
    assert doc["error"]["type"] == "Validation"


def test_cond_both_modes(capsys, ref_file):
    code, doc = run(capsys, "cond", "--instance", ref_file, "--K", "1", "--L", "2")
    assert code == 0
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    code, doc = run(capsys, "cond", "--instance", ref_file, "--mode", "state",
                    "--K", "M1=1", "--L", "M2=0")
    assert code == 0
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)


def test_cond_on_zero_probability_exits_1(capsys, ref_file, tmp_path):
    doc = ref_doc(ref_file)
    doc["events"][0]["in"] = []
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "cond", "--instance", str(path), "--K", "1", "--L", "2")
    assert code == 1
    assert out["error"]["type"] == "ConditionOnZero"


def test_indep(capsys, ref_file):
    code, doc = run(capsys, "indep", "--instance", ref_file, "--i", "2", "--K", "1")
    assert code == 0
    assert doc["independent"] is True
    assert doc["difference"] <= 1e-9
    code, doc = run(capsys, "indep", "--instance", ref_file, "--i", "2", "--K", "1", "--neg")
    assert code == 0
    assert doc["independent"] is True
    assert doc["query"]["negated"] is True


def test_profile(capsys, ref_file):
    code, doc = run(capsys, "profile", "--instance", ref_file)
    assert code == 0
    assert doc["s"] == [0, 1]
    assert doc["d_min"] == 0
    assert doc["nind_table"] == [[2, 1, True]]


def test_profile_fully_undefined_exits_2(capsys, ref_file, tmp_path):
    doc = ref_doc(ref_file)
    doc["events"][0]["in"] = ["0", "1"]  # complete event, complement is empty
    path = tmp_path / "undef.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "profile", "--instance", str(path))
    assert code == 2
    assert out["nind_table"] == [[2, 1, "undefined"]]


def test_check_general_pass_and_hypothesis_failure(capsys, ref_file):
    code, doc = run(capsys, "check", "--instance", ref_file, "--x", "0.6,0.6")
    assert code == 0
    assert doc["ok"] is True
    assert doc["report"]["lhs"] == pytest.approx(0.25, abs=1e-9)
    assert doc["report"]["rhs"] == pytest.approx(0.16, abs=1e-12)

    code, doc = run(capsys, "check", "--instance", ref_file, "--x", "0.001,0.001")
    assert code == 1
    assert doc["ok"] is False
    assert doc["report"]["assumption_ok"] == [False, False]


def test_check_general_reads_x_from_file(capsys, tensor_file):
    code, doc = run(capsys, "check", "--instance", tensor_file)
    assert code == 0
    assert doc["ok"] is True
    assert doc["report"]["lhs"] == pytest.approx(0.96 * 0.91, abs=1e-9)


def test_check_general_without_weights(capsys, ref_file):
    code, doc = run(capsys, "check", "--instance", ref_file)
    assert code == 2
    assert doc["error"]["type"] == "Validation"


def test_check_general_non_numeric_weights_exit_2(capsys, ref_file):
    code, doc = run(capsys, "check", "--instance", ref_file, "--x", "0.4,abc")
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert "abc" in doc["error"]["message"]


def test_check_general_empty_weights_exit_2(capsys, tensor_file):
    # an empty --x is given, so it must parse; it used to fall back to the file's x
    code, doc = run(capsys, "check", "--instance", tensor_file, "--x", "")
    assert code == 2
    assert doc["error"]["type"] == "Parse"


def test_check_symmetric(capsys, ref_file, tensor_file):
    code, doc = run(capsys, "check", "--instance", tensor_file, "--variant", "symmetric")
    assert code == 0
    assert doc["report"]["verdict"] == "pass"
    code, doc = run(capsys, "check", "--instance", ref_file, "--variant", "symmetric")
    assert code == 1
    assert doc["report"]["verdict"] == "not-applicable"


def test_check_symmetric_bad_p(capsys, tensor_file):
    code, doc = run(capsys, "check", "--instance", tensor_file, "--variant", "symmetric",
                    "--p", "0.01")
    assert code == 2
    assert doc["error"]["type"] == "BadP"


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1.5", "2"])
def test_check_symmetric_non_finite_p_exits_2(capsys, tensor_file, p):
    code = cli.main(["check", "--instance", tensor_file, "--variant", "symmetric", f"--p={p}"])
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert code == 2
    assert doc["error"]["type"] == "BadP"
    assert "finite" in doc["error"]["message"]


@pytest.mark.parametrize("argv,flag", [
    (["prob", "--mode", "state", "--seq", "M1=0", "--K", "1"], "--K"),
    (["prob", "--K", "1", "--seq", "M1=0"], "--seq"),
    (["indep", "--i", "2", "--K", "1", "--neg", "--J", "1"], "--J"),
    (["check", "--x", "0.6,0.6", "--p", "0.5"], "--p"),
    (["check", "--variant", "symmetric", "--x", "0.6,0.6"], "--x"),
], ids=["prob-state-K", "prob-test-seq", "indep-neg-J", "check-general-p", "check-symmetric-x"])
def test_flag_the_mode_does_not_read_exits_2(capsys, ref_file, argv, flag):
    code, doc = run(capsys, argv[0], "--instance", ref_file, *argv[1:])
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"].startswith(f"{flag} is not read")


def test_sample(capsys, ref_file):
    code, doc = run(capsys, "sample", "--instance", ref_file, "--K", "1,2",
                    "--n", "4000", "--seed", "5")
    assert code == 0
    assert doc["exact"] == pytest.approx(0.25, abs=1e-9)
    assert doc["n_samples"] == 4000
    assert doc["discrepancy_sigma"] is not None
    assert doc["discrepancy_sigma"] <= 5.0

    again_code, again = run(capsys, "sample", "--instance", ref_file, "--K", "1,2",
                            "--n", "4000", "--seed", "5")
    assert again == doc

    exact_code, exact_doc = run(capsys, "sample", "--instance", ref_file, "--K", "1,2",
                                "--n", "400", "--seed", "5", "--exact")
    assert exact_code == 0
    assert exact_doc["exact"] == doc["exact"]


def test_sample_negative_seed_exits_2(capsys, ref_file):
    code, doc = run(capsys, "sample", "--instance", ref_file, "--n", "10", "--seed", "-1")
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert "seed" in doc["error"]["message"]


def test_sample_defaults_to_assigned_slots(capsys, ref_file):
    code, doc = run(capsys, "sample", "--instance", ref_file, "--n", "500", "--seed", "1")
    assert code == 0
    assert doc["exact"] == pytest.approx(0.25, abs=1e-9)


def test_paper_examples(capsys):
    code, doc = run(capsys, "paper-examples")
    assert code == 0
    assert doc["all_pass"] is True
    assert len(doc["results"]) == 5
    assert sum(len(r["checks"]) for r in doc["results"]) == 13


def test_paper_examples_failure_exits_2(capsys, monkeypatch):
    broken = WorkedExample(
        name="broken",
        description="forced mismatch",
        checks=(Check(label="bad", expected=0.5, actual=0.9),),
    )
    monkeypatch.setattr(cli, "worked_examples", lambda tol=None: [broken])
    code, doc = run(capsys, "paper-examples")
    assert code == 2
    assert doc["all_pass"] is False


def test_gen_stdout_and_file(capsys, tmp_path):
    argv = ["gen", "--kind", "random-povm", "--n", "2", "--local-dim", "3", "--seed", "4", "--x", "0.5,0.5"]
    code, doc = run(capsys, *argv)
    assert code == 0
    assert doc["x"] == [0.5, 0.5]
    jsonschema.validate(doc, INSTANCE_SCHEMA)

    # --out writes the very bytes gen prints, compact or indented, and prints nothing
    for style in ([], ["--pretty"]):
        assert cli.main(argv + style) == 0
        printed = capsys.readouterr().out
        out = tmp_path / f"gen{len(style)}.json"
        assert cli.main(argv + style + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")
        assert json.loads(printed) == doc


def test_gen_non_numeric_weights_exit_2(capsys):
    code, doc = run(capsys, "gen", "--kind", "random-povm", "--n", "2", "--seed", "4",
                    "--x", "0.1,zz")
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert "zz" in doc["error"]["message"]


def test_gen_empty_weights_exit_2(capsys, tmp_path):
    # an empty --x used to write an instance without weights and exit 0
    out = tmp_path / "gen.json"
    code, doc = run(capsys, "gen", "--kind", "paper-examples", "--x", "", "--out", str(out))
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert not out.exists()


def test_gen_empty_out_exits_2(capsys):
    # an empty --out used to print the instance and exit 0
    code, doc = run(capsys, "gen", "--kind", "paper-examples", "--out", "")
    assert code == 2
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"].startswith("cannot write instance file ''")


@pytest.mark.parametrize("weights,message", [
    ("nan,7", "weight x_1 must lie in (0, 1], got nan"),
    ("0.5", "need one weight per slot: got 1, test has 2"),
], ids=["nan-weight", "one-weight"])
def test_gen_rejects_weights_a_check_would_refuse(capsys, tmp_path, weights, message):
    out = tmp_path / "gen.json"
    code, doc = run(capsys, "gen", "--kind", "paper-examples", "--x", weights,
                    "--out", str(out))
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"] == message
    assert not out.exists()


def test_gen_unwritable_out_path_exits_2(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "x.json"
    code, doc = run(capsys, "gen", "--kind", "random-povm", "--n", "2", "--seed", "4",
                    "--out", str(out))
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert str(out) in doc["error"]["message"]
    assert not out.exists()


def test_gen_negative_seed_exits_2(capsys, tmp_path):
    out = tmp_path / "gen.json"
    code, doc = run(capsys, "gen", "--kind", "random-povm", "--seed", "-1", "--out", str(out))
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert "seed" in doc["error"]["message"]
    assert not out.exists()


def test_gen_respects_dimension_cap(capsys, monkeypatch):
    monkeypatch.setenv("QLLL_DIM_CAP", "2")
    code, doc = run(capsys, "gen", "--kind", "tensor-product", "--n", "2", "--seed", "0")
    assert code == 2
    assert doc["error"]["type"] == "DimensionCapExceeded"


def test_unreadable_instance_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, doc = run(capsys, "prob", "--instance", str(path), "--K", "1")
    assert code == 2
    assert doc["error"]["type"] == "Parse"


@pytest.mark.parametrize("index", [0, -1, 3])
def test_out_of_range_event_index_exits_2(capsys, ref_file, tmp_path, index):
    doc = ref_doc(ref_file)  # two measurements
    doc["events"][0]["measurement"] = index
    path = tmp_path / "bad-index.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "prob", "--instance", str(path), "--K", "1")
    assert code == 2
    assert out["error"]["type"] == "Parse"


def test_test_mode_requires_events(capsys, ref_file, tmp_path):
    doc = ref_doc(ref_file)
    del doc["events"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "prob", "--instance", str(path), "--K", "1")
    assert code == 2
    assert "events" in out["error"]["message"]


def test_pretty_output(capsys, ref_file):
    code = cli.main(["profile", "--instance", ref_file, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["d_min"] == 0


def test_module_entry_point():
    # the child imports the same qlll as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlll.cli", "paper-examples"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


def test_indep_neg_evaluates_each_probability_once(capsys, ref_file, monkeypatch):
    # the conditional reads miss_1 (denominator), applies it and reads hit_2;
    # the marginal applies complete_1 (tau_1) and reads hit_2
    calls = count_channel_work(monkeypatch)
    code, doc = run(capsys, "indep", "--instance", ref_file, "--neg", "--i", "2", "--K", "1")
    assert code == 0
    assert (calls.count("__call__"), calls.count("trace_of")) == (2, 3)


def test_indep_neg_rejects_condition_after_target(capsys, ref_file):
    code, doc = run(capsys, "indep", "--instance", ref_file, "--neg", "--i", "1", "--K", "2")
    assert code == 2
    assert doc["error"]["type"] == "Validation"


@pytest.mark.parametrize("kind,flag,value", [
    ("paper-examples", "--n", "3"),
    ("paper-examples", "--local-dim", "3"),
    ("paper-examples", "--window", "2"),
    ("paper-examples", "--seed", "0"),
    ("paper-examples", "--outcomes", "2"),
    ("tensor-product", "--window", "7"),
    ("sliding-window", "--outcomes", "2"),
    ("dependent-chain", "--window", "2"),
    ("dependent-chain", "--outcomes", "2"),
    ("random-projective", "--window", "2"),
    ("random-povm", "--window", "2"),
])
def test_gen_flag_the_kind_does_not_read_exits_2(capsys, tmp_path, kind, flag, value):
    out = tmp_path / "gen.json"
    seed = [] if kind == "paper-examples" or flag == "--seed" else ["--seed", "1"]
    code, doc = run(capsys, "gen", "--kind", kind, *seed, flag, value, "--out", str(out))
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"] == f"{flag} is not read by gen --kind {kind}"
    assert not out.exists()


def test_gen_random_kind_needs_seed(capsys):
    code, doc = run(capsys, "gen", "--kind", "tensor-product", "--n", "2")
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"] == "gen --kind tensor-product needs --seed"


def test_gen_defaults_to_two_slots(capsys):
    code, doc = run(capsys, "gen", "--kind", "random-povm", "--seed", "4")
    assert code == 0
    assert len(doc["measurements"]) == 2
    assert doc["dim"] == 2


def test_prob_test_mode_needs_K(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file)
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"] == "test mode needs --K"


@pytest.mark.parametrize("argv", [["--K", "1"], ["--L", "2"], []], ids=["no-L", "no-K", "neither"])
def test_cond_needs_K_and_L(capsys, ref_file, argv):
    code, doc = run(capsys, "cond", "--instance", ref_file, *argv)
    assert code == 2
    assert doc["error"]["type"] == "Validation"
    assert doc["error"]["message"] == "cond needs --K (conditioning) and --L (target)"


def test_state_mode_markers(capsys, ref_file):
    _, listed = run(capsys, "prob", "--instance", ref_file, "--mode", "state",
                    "--seq", "M1 in {0,1};M2=0")
    code, full = run(capsys, "prob", "--instance", ref_file, "--mode", "state",
                     "--seq", "full(M1);M2=0")
    assert code == 0
    assert full["value"] == listed["value"]
    assert full["query"] == listed["query"]
    code, empty = run(capsys, "prob", "--instance", ref_file, "--mode", "state",
                      "--seq", " empty( M1 ) ;M2=0")
    assert code == 0
    assert empty["value"] == 0.0
    assert empty["query"]["seq"][0] == {"measurement": "M1", "in": []}


def test_sample_exact_past_the_enumeration_cap(capsys, tmp_path):
    # d=2 forces two outcomes per slot: 2**20 trajectories, above the 10**6 cap
    a = generate(GeneratorSpec(kind=GeneratorKind.RANDOM_PROJECTIVE, n=20, local_dim=2, seed=3))
    path = tmp_path / "long.json"
    path.write_text(dumps(a) + "\n")
    code, doc = run(capsys, "sample", "--instance", str(path), "--n", "20", "--seed", "1")
    assert code == 0
    assert doc["exact"] is None
    assert doc["discrepancy_sigma"] is None
    code, doc = run(capsys, "sample", "--instance", str(path), "--n", "20", "--seed", "1",
                    "--exact")
    assert code == 2
    assert doc["error"]["type"] == "EnumerationCapExceeded"
    assert doc["error"]["detail"] == {"grid": 2**20, "cap": 10**6}


def test_boolean_version_exits_2(capsys, ref_file, tmp_path):
    doc = ref_doc(ref_file)
    doc["version"] = True
    path = tmp_path / "bool-version.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "prob", "--instance", str(path), "--K", "1")
    assert code == 2
    assert out["error"]["type"] == "Parse"
    assert "version" in out["error"]["message"]


@pytest.mark.parametrize("content,prefix", [
    (b"\xff\xfe", "cannot read instance file"),
    (b"[" * 200000, "invalid JSON"),
    (b"[" + b"1" * 5000 + b"]", "invalid JSON"),
], ids=["not-utf8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
def test_malformed_instance_file_exits_2(capsys, tmp_path, content, prefix):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    code, doc = run(capsys, "profile", "--instance", str(path))
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert doc["error"]["message"].startswith(prefix)


def _set_leaves(doc, leaf, value):
    if leaf == "state":
        doc["state"][0][0][0] = value
    elif leaf == "state-off-diagonal":  # still Hermitian, far from positive
        doc["state"][0][1][0] = doc["state"][1][0][0] = value
    elif leaf == "kraus":
        doc["measurements"][0]["kraus"][0][0][0][0] = value
    else:
        doc["x"] = [value] * len(doc["measurements"])


def _check_strictly(capsys, path):
    """Run ``check`` on *path*; return the exit code, the document and the warnings."""
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["check", "--instance", str(path)])
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    jsonschema.validate(doc, ERROR_SCHEMA)
    return code, doc, [str(w.message) for w in caught]


@pytest.mark.parametrize("leaf", ["state", "kraus", "x"])
def test_integer_beyond_float_range_exits_2(capsys, ref_file, tmp_path, leaf):
    doc = ref_doc(ref_file)
    _set_leaves(doc, leaf, 10**400)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, caught = _check_strictly(capsys, path)
    assert code == 2
    assert out["error"]["type"] == "Parse"
    assert out["error"]["message"] == "a 401-digit integer is beyond float range"
    assert caught == []


@pytest.mark.parametrize("leaf,error", [
    ("kraus", "NotComplete"),
    ("state", "BadTrace"),
    ("state-off-diagonal", "NotPositive"),
])
def test_entries_near_the_float_limit_give_a_json_error(capsys, ref_file, tmp_path, leaf, error):
    doc = ref_doc(ref_file)
    _set_leaves(doc, leaf, 1e308)
    path = tmp_path / "near-limit.json"
    path.write_text(json.dumps(doc))
    code, out, caught = _check_strictly(capsys, path)
    assert code == 2
    assert out["error"]["type"] == error
    assert caught == []


def test_non_integer_slot_index_exits_2(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file, "--K", "1,x")
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert doc["error"]["message"].startswith("expected comma-separated integers")


def test_state_mode_empty_sequence_exits_2(capsys, ref_file):
    code, doc = run(capsys, "prob", "--instance", ref_file, "--mode", "state", "--seq", ";")
    assert code == 2
    assert doc["error"]["type"] == "Parse"
    assert doc["error"]["message"] == "empty event sequence"


def test_cond_on_empty_K_is_the_marginal(capsys, ref_file):
    code, cond = run(capsys, "cond", "--instance", ref_file, "--K", "", "--L", "2")
    assert code == 0
    assert cond["query"] == {"K": [], "L": [2]}
    _, prob = run(capsys, "prob", "--instance", ref_file, "--K", "2")
    assert cond["value"] == pytest.approx(prob["value"], abs=1e-12)


@pytest.mark.parametrize("argv,message", [
    (["indep", "--instance", "FILE", "--pretty", "--i", "abc", "--K", "1"],
     "qlll indep: argument --i: invalid int value: 'abc'"),
    (["indep", "--instance", "FILE", "--pretty", "--K", "1"],
     "qlll indep: the following arguments are required: --i"),
    (["frob", "--pretty"], "qlll: argument command: invalid choice: 'frob'"),
    (["prob", "--instance", "FILE", "--K", "1", "--bogus"], "qlll: unrecognized arguments: --bogus"),
])
def test_bad_command_lines_print_a_parse_document(capsys, ref_file, argv, message):
    # argparse used to print usage to stderr and nothing on stdout; the
    # command line is read before the instance, so --pretty is not known yet
    code = cli.main([ref_file if arg == "FILE" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.count("\n") == 1  # one compact document
    doc = json.loads(captured.out)
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"]["type"] == "Parse"
    assert doc["error"]["message"].startswith(message)


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prob", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qlll prob")
