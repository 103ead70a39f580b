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
