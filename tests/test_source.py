"""Checks on the library source itself."""

import ast
from pathlib import Path

import ffbinom


def test_library_has_no_assert_statements():
    # invariants that guard results raise explicit errors: an assert
    # statement vanishes under python -O
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"
