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
