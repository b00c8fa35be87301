"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hslbound"


def test_no_assert_statements():
    # python -O strips assert statements, so invariants guarding certified
    # output must be explicit raises
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def test_perfbench_traced_names_exist():
    # the benchmark's tracer wraps library functions by module and name; a
    # renamed function would silently read 0 calls instead of failing
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.STAGES and tracing.HOT
    missing = [
        f"hslbound.{mod}.{name}"
        for table in (tracing.STAGES, tracing.HOT)
        for mod, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hslbound.{mod}"), name, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"
