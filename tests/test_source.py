"""Static checks over the library source."""

import argparse
import ast
import importlib
import re
from pathlib import Path

from qlll.cli import build_parser
from qlll.generate import _READS, GeneratorKind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qlll"


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts; invariants raise InternalConsistencyError
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _calls(tree: ast.AST):
    """``(line, name)`` of every call under *tree*, by function or method name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield node.lineno, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _top_level(name: str, node_name: str) -> ast.AST:
    """The function or class *node_name* defined at the top level of library file *name*."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    return next(
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == node_name
    )


def test_only_the_probability_layer_builds_channels():
    # lll.py and independence.py read the channels the test and the events
    # hold; building channels or complemented assignments there would rebuild
    # them per query
    builders = {"super_operator_of", "complement", "complete_event", "with_complemented"}
    found = []
    for name in ("lll.py", "independence.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        found += [f"{name}:{line} {called}" for line, called in _calls(tree) if called in builders]
    assert found == []


def test_lll_walks_no_channels():
    # the check reads its marginals, lemma column and all-avoided probability
    # from independence._PrefixWalk; only independence.py and probability.py
    # walk channels, so a second forward walk cannot come back unnoticed
    walking = {"_hit", "_miss", "_complete", "_padded", "_cond", "_walk", "trace"}
    tree = ast.parse((SRC / "lll.py").read_text(encoding="utf-8"), filename="lll.py")
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    found = [
        f"lll.py:{node.lineno} {getattr(node, names[type(node)])}"
        for node in ast.walk(tree)
        if type(node) in names and getattr(node, names[type(node)]) in walking
    ]
    assert found == []


def test_sampler_step_has_no_short_axis_reductions():
    # np.cumsum or argmax along the 2-5-wide outcome axis cost the sampler half
    # its throughput; the step walks the outcome columns one at a time instead
    chunk = _top_level("oracle.py", "_sample_chunk")
    found = [f"oracle.py:{line} {called}" for line, called in _calls(chunk) if called in {"cumsum", "argmax"}]
    assert found == []


def test_assumption_search_runs_no_whole_check():
    # the search settles one hypothesis row at a time; a full check or profile
    # per candidate evaluates every row, the lemma column and all O(n^2) pairs,
    # and a walk from rho per candidate repeats the settled slots' channels
    whole = {"check_general", "compute_profile", "pr_test_marginal", "_test_cond", "is_neg_independent", "_walk"}
    found = []
    for name, node_name in (("generate.py", "generate_assumption_satisfying"), ("independence.py", "_PrefixWalk")):
        calls = _calls(_top_level(name, node_name))
        found += [f"{name}:{line} {called}" for line, called in calls if called in whole]
    assert found == []


def _functions(tree: ast.Module):
    """``(qualified name, node)`` of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))


def test_walks_start_at_tau_and_read_their_last_channel():
    # every probability reads its last channel as an effect (trace_of), so
    # trace() only ever sees a state already walked; test-relative walks start
    # at the test's tau, so rho.matrix is read where the test builds tau and by
    # the bare-state roots, which have no test
    found, readers = [], set()
    for name in ("probability.py", "independence.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        found += [
            f"{name}:{node.lineno} trace({ast.unparse(arg)})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "trace"
            for arg in node.args
            if not isinstance(arg, ast.Name)
        ]
        readers |= {
            f"{name}:{qualname}"
            for qualname, func in _functions(tree)
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and node.attr == "matrix"
            and "rho" in {getattr(node.value, "id", None), getattr(node.value, "attr", None)}
        }
    assert found == []
    assert readers == {
        "probability.py:Test.__post_init__",
        "probability.py:pr_state",
        "probability.py:pr_state_cond",
    }


def test_cli_main_is_the_one_reader_and_writer():
    # every verb returns its document; instance verbs get the result of the one
    # load_path call, and only _emit prints or opens a file
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"), filename="cli.py")
    assert [called for _, called in _calls(tree)].count("load_path") == 1
    emit = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_emit")
    assert {"print", "open"} <= {called for _, called in _calls(emit)}
    inside = {id(node) for node in ast.walk(emit)}
    found = [
        f"cli.py:{node.lineno} {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in {"print", "open"}
        and id(node) not in inside
    ]
    found += [
        f"cli.py:{node.lineno} returns (None, ...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Tuple)
        and node.value.elts
        and isinstance(node.value.elts[0], ast.Constant)
        and node.value.elts[0].value is None
    ]
    assert found == []


def test_library_imports_are_used():
    # __init__.py imports only to re-export, so it is left out
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # ``import a.b`` binds ``a``; ``from m import x as y`` binds ``y``
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_fstrings_have_placeholders():
    # a format spec such as the ``.3e`` in f"{x:.3e}" is itself a JoinedStr
    # without placeholders, so those nested nodes are left out
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        specs = {
            id(node.format_spec)
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.format_spec is not None
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)
        ]
    assert found == []


def _readme_table(intro: str) -> list[list[str]]:
    """Body rows of the first table after the README line starting with *intro*."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(n for n, line in enumerate(lines) if line.startswith(intro))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # header and separator rows


def test_readme_tables_match_the_cli():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    verbs = [re.fullmatch(r"`([^`]+)`", row[0]).group(1) for row in _readme_table("Verbs:")]
    assert verbs == list(sub.choices)

    reads = {}
    for kinds, flags in _readme_table("Generator kinds"):
        fields = frozenset(
            flag.removeprefix("--").replace("-", "_") for flag in re.findall(r"`([^`]+)`", flags)
        )
        assert fields or flags == "none"
        for kind in re.findall(r"`([^`]+)`", kinds):
            reads[GeneratorKind(kind)] = fields
    assert reads == _READS


def test_perfbench_names_resolve():
    # tier-1 does not run perfbench/tests, so this is what keeps a deleted or
    # renamed library name from breaking the traced benchmark unnoticed
    bench = ROOT / "perfbench" / "qlllbench"
    tree = ast.parse((bench / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    names = [tuple(ast.literal_eval(part) for part in row.elts[1:4]) for row in targets.elts]
    assert names
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qlll":
                names += [(node.module, None, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [(alias.name, None, None) for alias in node.names if alias.name.split(".")[0] == "qlll"]
    missing = []
    for module, owner, attr in names:
        found = importlib.import_module(module)
        for part in (owner, attr):
            if part is not None:
                found = getattr(found, part, None)
        if found is None:
            missing.append(f"{module}:{owner or ''}.{attr}")
    assert missing == []
