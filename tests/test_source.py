"""Static checks over the library source."""

import argparse
import ast
import dataclasses
import importlib
import re
from enum import Enum
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


def _names_used(name: str, wanted: set[str]) -> list[str]:
    """``file:line name`` of each name, attribute or import in library file *name* that is in *wanted*."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return [
        f"{name}:{node.lineno} {getattr(node, fields[type(node)])}"
        for node in ast.walk(tree)
        if type(node) in fields and getattr(node, fields[type(node)]) in wanted
    ]


def test_only_measurements_and_events_build_channels():
    # a measurement builds its complete channel and an event its hit and miss
    # channels; a test and every query read those, so building channels,
    # complete events or complemented assignments elsewhere would rebuild them
    def calls_to(name):
        return _call_sites(lambda f: ast.unparse(f).split(".")[-1] == name)

    assert sorted(calls_to("super_operator_of")) == [
        "events.py:Event._hit",
        "events.py:Event._miss",
        "events.py:Measurement.__post_init__",
    ]
    found = [site for site in calls_to("complete_event") if site.startswith("probability.py:")]
    builders = {"complement", "complete_event", "with_complemented"}
    for name in ("lll.py", "independence.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        found += [f"{name}:{line} {called}" for line, called in _calls(tree) if called in builders]
    assert found == []


def test_kraus_products_are_formed_once_and_kron_nowhere():
    # a measurement forms each K^dagger K once and every channel's effect sums
    # those; random_povm_measurement's products are of its Gaussian draws,
    # before they are normalized into Kraus operators.  np.kron goes through
    # generate._kron, one broadcast product
    def adjoint_on_the_left(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)
            and re.search(r"\.conj\(\)\.T$|\.T\.conj\(\)$", ast.unparse(node.left)) is not None
        )

    found = _sites(adjoint_on_the_left)
    assert sorted(found) == ["events.py:Measurement.__post_init__", "generate.py:random_povm_measurement"]
    assert _call_sites(lambda f: ast.unparse(f).split(".")[-1] == "kron") == []


def test_a_channel_forms_no_adjoint_per_application():
    # a dense channel stacks its operators and their adjoints once, when first
    # applied; a conj() in __call__ would form them again on every call
    assert "events.py:SuperOperator.__call__" not in _call_sites(lambda f: getattr(f, "attr", None) == "conj")


def test_every_library_class_is_a_frozen_dataclass():
    # library values are immutable and compare by value; only exceptions,
    # enums, the forward walk (it advances) and the argument parser are not
    mutable = {"independence.py:_PrefixWalk", "cli.py:_Parser"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("qlll" if path.stem == "__init__" else f"qlll.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if cls is None or issubclass(cls, (Exception, Enum)) or f"{path.name}:{node.name}" in mutable:
                continue
            if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
                found.append(f"{path.name}:{node.name}")
    assert found == []


def test_lll_walks_no_channels():
    # the check reads its marginals, lemma column and all-avoided probability
    # from the profile; only independence.py and probability.py walk channels,
    # so a second forward walk cannot come back unnoticed
    walking = {"_hit", "_miss", "_complete", "_padded", "_cond", "_walk", "trace", "_PrefixWalk"}
    assert _names_used("lll.py", walking) == []


def test_oracle_reads_no_super_operator():
    # enumeration and the sampler referee the super-operator path, so they
    # read only Kraus operators: a channel or effect borrowed from a Test or an
    # Event would let one fault pass both routes unseen
    borrowed = {"_hit", "_miss", "_complete", "_tau", "super_operator_of", "trace_of", "SuperOperator"}
    assert _names_used("oracle.py", borrowed) == []


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


def _sites(wanted) -> list[str]:
    """``file:function`` of every library syntax node *wanted* accepts (``<module>`` outside functions)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {id(node): qualname for qualname, func in _functions(tree) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree) if wanted(node)]
    return found


def _call_sites(wanted) -> list[str]:
    """``file:function`` of every library call whose callee *wanted* accepts."""
    return _sites(lambda node: isinstance(node, ast.Call) and wanted(node.func))


def test_each_argument_rule_has_one_home():
    # the integer rule (operator.index, bools refused) and the slot-order rule
    # are each said once, so a second copy cannot drift from the first
    index = _call_sites(lambda f: ast.unparse(f) in {"operator.index", "index"})
    assert index == ["probability.py:_integer"]
    assert _call_sites(lambda f: ast.unparse(f) == "BadOrderingError") == ["probability.py:_ordered"]


def test_completeness_is_refused_where_measurements_and_tests_are_built():
    # a measurement refuses its own residual and a test the summed budget of
    # its slots; a query that raised NotCompleteError would refuse an input
    # the constructors had admitted
    sites = _call_sites(lambda f: ast.unparse(f) == "NotCompleteError")
    assert sorted(sites) == ["events.py:Measurement.__post_init__", "probability.py:Test.__post_init__"]


def test_only_the_factor_search_peels():
    # one descending scan per side; a second caller would be a second search
    assert _call_sites(lambda f: ast.unparse(f) == "_peel") == ["events.py:_identity_factors"] * 2


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
