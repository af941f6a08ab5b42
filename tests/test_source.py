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


def test_element_test_lives_in_gf_only():
    # FieldSpec.check_element is the one element test: its message is formed
    # once, in gf, and no module keeps a check helper of its own
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    texts = {path.name: path.read_text() for path in sources}
    forming = {name: text.count("is not an element of") for name, text in texts.items() if "is not an element of" in text}
    assert forming == {"gf.py": 1}, forming
    retired = {"_check_element", "_check_shift", "_not_an_element", "_check_prime_elements"}
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, text in texts.items()
        for node in ast.walk(ast.parse(text, name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in retired
    ]
    assert not found, f"element checks outside FieldSpec.check_element: {found}"


def _name_of(node):
    # the name that an attribute, a bare name or an import reads
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return node.name if isinstance(node, ast.alias) else None


def test_block_rule_and_pair_kernels_live_in_gf_only():
    # gf's encoding and block rule stay in gf: other modules take the shift
    # row, the pair-difference histograms and the bulk operations from
    # FieldSpec's methods, and family imports only public names from gf
    private = {
        "_BUILD_CHUNK",
        "_PAIR_CHUNK",
        "_blocks_into",
        "_blockwise",
        "_reduce",
        "_add_q_where_negative",
        "_zech_sum",
        "_zech_block",
    }
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    assert any(path.name == "gf.py" for path in sources)
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sources}
    found = [
        f"{name}:{node.lineno} {_name_of(node)}"
        for name, tree in trees.items()
        if name != "gf.py"
        for node in ast.walk(tree)
        if _name_of(node) in private
    ]
    assert not found, f"gf internals read outside gf: {found}"
    from_gf = [
        alias.name
        for node in ast.walk(trees["family.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module == "gf" or alias.name == "gf"
    ]
    assert from_gf and all(not name.startswith("_") and name != "gf" for name in from_gf), from_gf


def test_delta_rows_are_summarized_in_diff_only():
    # diff.row_report is the one summary of the a = 1 row: no other module
    # reads a private name of diff; and FieldSpec keeps no scalar copy of
    # sij_table, whose reference sij_classify is a test oracle
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    assert any(path.name == "diff.py" for path in sources)
    found = []
    for path in sources:
        if path.name == "diff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "diff"
                and node.attr.startswith("_")
            ):
                found.append(f"{path.name}:{node.lineno} diff.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module in ("diff", "ffbinom.diff"):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"diff internals read outside diff: {found}"
    assert not hasattr(ffbinom.FieldSpec, "sij_classify")


def test_pair_kernels_count_into_one_int64_histogram():
    # run_diff_hist and outer_diff_hist add to one int64 histogram each with
    # np.add.at: no helper sums q-long histograms, and no bincount in gf
    # counts in float64 weights
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sources}
    assert "gf.py" in trees
    defined = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_summed"
    ]
    assert not defined, f"_summed defined in the library: {defined}"
    weighted = [
        f"gf.py:{node.lineno}"
        for node in ast.walk(trees["gf.py"])
        if isinstance(node, ast.Call)
        and _name_of(node.func) == "bincount"
        and (len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords))
    ]
    assert not weighted, f"weighted bincount in gf: {weighted}"


def test_boomerang_counts_share_one_matching_loop():
    # beta_ab (and through it beta_row) and bijkl_counts count the keys
    # equal to a target in boom._match_counts, the only function of boom
    # that calls searchsorted, and no segment-rank helper _rank_sums exists
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sources}
    assert "boom.py" in trees
    defined = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_rank_sums"
    ]
    assert not defined, f"_rank_sums defined in the library: {defined}"
    functions = {node.name: node for node in trees["boom.py"].body if isinstance(node, ast.FunctionDef)}

    def calls(fn, name):
        return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call) and _name_of(node.func) == name]

    assert calls(functions["beta_ab"], "_match_counts") and calls(functions["bijkl_counts"], "_match_counts")
    searching = {name for name, fn in functions.items() if calls(fn, "searchsorted")}
    assert searching == {"_match_counts"}, searching


def test_lemma_helpers_live_in_the_tests_only():
    # the lemma checks that only tests called are gone from the library:
    # the tests check those lemmas through public pieces and the scalar
    # oracles, where SijClass is sij_classify's vocabulary
    retired = {"quad_char_sum", "odd_fn_sum_check", "gcd_check", "sij_sizes", "orbit_id", "SijClass", "NotOddError", "ZeroLeadingError"}
    sources = sorted(Path(ffbinom.__file__).parent.rglob("*.py"))
    assert any(path.name == "__init__.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in [node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else _name_of(node)]
        if name in retired
    ]
    assert not found, f"test-only helpers in the library: {found}"
    assert not retired & set(dir(ffbinom))
