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


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_traced_names_exist():
    # the benchmark's tracer wraps library functions by module and name; a
    # renamed function would silently read 0 calls instead of failing
    tracing = load_tracing()
    assert tracing.STAGES and tracing.HOT
    missing = [
        f"hslbound.{mod}.{name}"
        for table in (tracing.STAGES, tracing.HOT)
        for mod, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hslbound.{mod}"), name, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"


def test_perfbench_tracer_reads_memo_size():
    # Tracer.memo_size reads len(S._memo) of every semigroup it saw built;
    # a change of the memo's type must fail here, not in a traced run
    tracing = load_tracing()
    semigroups = importlib.import_module("hslbound.semigroups")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        S = semigroups.build(((5, 1), (4, 1), (1, 3), (1, 4)))
        semigroups.member(S, (6, 4))
    finally:
        tracer.uninstall()
    assert tracer.semigroups == [S]
    assert tracer.memo_size() == 1


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is left out
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources, f"no sources under {SRC}"
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports in the library: {sorted(unused)}"
