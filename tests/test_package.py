import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rmlab"


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


def test_perfbench_tracer_targets_exist():
    # the benchmark's tracer rebinds these names; a rename would only
    # surface in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _name, modname, paths, *_ in tracing.LAYERS:
        module = importlib.import_module(modname)
        for path in paths:
            try:
                owner, attr = tracing._resolve(module, path)
                owner.__dict__[attr]  # what Tracer.install reads
            except (AttributeError, KeyError):
                missing.append(f"{modname}:{path}")
    assert missing == []
    assert isinstance(importlib.import_module("rmlab.rmpoints")._CLASS_KEY_CACHE, dict)
    assert isinstance(importlib.import_module("rmlab.hecke")._COSET_CACHE, dict)


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in path and nothing else in the file reads;
    an import marked ``# noqa: F401`` is kept on purpose."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}:{name}")
    return found


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []
