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


def test_field_tables_are_read_in_gf_only():
    # the int32 tables' dtype and widening are gf's decision: other modules
    # go through FieldSpec's methods and public tables
    private = {"_log", "_exp", "_chi", "_zech", "_digits", "_require_tables"}
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    assert any(path.name == "gf.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sources
        if path.name != "gf.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not found, f"field table internals read outside gf: {found}"
