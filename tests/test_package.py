import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rmlab"


def test_library_has_no_assert_statements():
    # certification checks raise Mismatch so they still run under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_only_typed_errors():
    # every failure is an RmlabError (or a ValueError for bad arguments)
    bare = {"AssertionError", "RuntimeError", "KeyError", "ZeroDivisionError"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in bare:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
