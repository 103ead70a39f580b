"""Static checks over the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qlll"


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


def test_only_the_probability_layer_builds_channels():
    # lll.py and independence.py read each assignment's channel table; building
    # channels or complemented assignments there would rebuild it per query
    builders = {"super_operator_of", "complement", "complete_event", "with_complemented"}
    found = []
    for name in ("lll.py", "independence.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in builders:
                    found.append(f"{name}:{node.lineno} {called}")
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
