"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hslbound"


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
