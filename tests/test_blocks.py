"""The blocked bulk passes at their block edges.

With gf._BUILD_CHUNK shrunk to 7, every array of a small field runs in many
blocks, and a last block of any length, where at the real block size it is
one block: each kernel must equal its one-block result (bit for bit) and
the naive oracles.  Fields and draws as in
test_properties.py, derandomized and bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffbinom import gf
from ffbinom.boom import beta_ab, beta_profile, beta_row, bijkl_counts
from ffbinom.diff import d00_condition, delta_row
from ffbinom.family import BinomialSpec, eval_table
from ffbinom.gf import is_prime, make_field

from naive_oracles import (
    digit_add,
    digit_sub,
    naive_d00_condition,
    naive_shift_difference,
    pair_key_beta_count,
    pow_slow,
    raw_mul,
)

_FIELDS = [(p, n) for p in range(3, 32) if is_prime(p) for n in range(1, 8) if p**n <= 3**7]
_FIELDS += [(p, 1) for p in range(3, 600) if is_prime(p)]

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def blocked(fn):
    """fn() with 7-element blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_BUILD_CHUNK", 7)
        return fn()


def fields():
    return st.sampled_from(_FIELDS).map(lambda pn: make_field(*pn))


def elements(f):
    return st.sampled_from([0, 1, f.minus_one]) | st.integers(0, f.q - 1)


@_SETTINGS
@given(data=st.data())
def test_blocked_power_table(data):
    # each scale kind: (1, 1), equal, unequal, one zero and both zero; e = 0
    # (0^0 = 1) and exponents past q - 1
    f = data.draw(fields())
    e = data.draw(st.sampled_from([0, 1, 2, f.q - 1, f.q]) | st.integers(0, 3 * f.q))
    c, d = data.draw(st.integers(1, f.q - 1)), data.draw(st.integers(1, f.q - 1))
    scale = data.draw(st.sampled_from([(1, 1), (c, c), (c, d), (0, c), (c, 0), (0, 0)]))
    table = blocked(lambda: f.power_table(e, scale))
    assert table.dtype == np.int64
    assert np.array_equal(table, f.power_table(e, scale))
    for x in data.draw(st.lists(elements(f), min_size=1, max_size=6)):
        assert table[x] == raw_mul(f, pow_slow(f, x, e), scale[f.chi(x) < 0])


@_SETTINGS
@given(data=st.data())
def test_blocked_add_sub_mul(data):
    # a q-long operand against another, or a scalar in either slot; b is
    # drawn per entry as 0, a, -a or any element, so that zero operands,
    # zero sums and zero differences all occur
    f = data.draw(fields())
    a = np.arange(f.q, dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind, other = rng.integers(0, 4, f.q), rng.integers(0, f.q, f.q)
    b = np.select([kind == 0, kind == 1, kind == 2], [other, 0, a], digit_sub(f, 0, a))
    c = data.draw(elements(f))
    for x, y in ((a, b), (a, c), (c, b)):
        assert np.array_equal(blocked(lambda: f.sub_arrays(x, y)), digit_sub(f, x, y))
        assert np.array_equal(blocked(lambda: f.add_arrays(x, y)), digit_add(f, x, y))
        assert np.array_equal(blocked(lambda: f.mul_arrays(x, y)), f.mul_arrays(x, y))
        assert np.array_equal(f.sub_arrays(x, y), digit_sub(f, x, y))


@_SETTINGS
@given(data=st.data())
def test_blocked_shift_difference(data):
    # a = 1 (the successor table on F_{p^n}) and any shift; the values are
    # a binomial's, with the zeros of u = +-1, or drawn
    f = data.draw(fields())
    a = data.draw(st.sampled_from([1, f.q - 1]) | st.integers(1, f.q - 1))
    if data.draw(st.booleans()):
        values = eval_table(f, BinomialSpec(data.draw(st.integers(1, 2 * f.q)), data.draw(elements(f))))
    else:
        values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, f.q, f.q)
    row = blocked(lambda: f.shift_difference(values, a))
    assert np.array_equal(row, f.shift_difference(values, a))
    assert row.tolist() == naive_shift_difference(f, values, a)


@_SETTINGS
@given(data=st.data())
def test_blocked_d00_condition_and_delta_row(data):
    f = data.draw(fields())
    r = data.draw(st.integers(1, 12) | st.integers(1, 2 * f.q))
    report = blocked(lambda: d00_condition(f, r))
    assert report == d00_condition(f, r) == naive_d00_condition(f, r)
    spec = BinomialSpec(r, data.draw(elements(f)))
    assert np.array_equal(blocked(lambda: delta_row(f, spec)), delta_row(f, spec))


@_SETTINGS
@given(data=st.data())
def test_blocked_boomerang_counts(data):
    # b = 0, +-1, a difference of two values or any element; bijkl_counts
    # where it applies (u = +-1, b != 0)
    f = data.draw(fields())
    u = data.draw(st.sampled_from([0, 1, f.minus_one]) | st.integers(0, f.q - 1))
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), u)
    a = data.draw(st.sampled_from([1, f.q - 1]) | st.integers(1, f.q - 1))
    values = eval_table(f, spec)
    x, y = data.draw(st.integers(0, f.q - 1)), data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.sampled_from([0, 1, f.minus_one, f.sub(int(values[x]), int(values[y]))]) | st.integers(0, f.q - 1))
    row = pair_key_beta_count(f, spec, 1, b)
    assert blocked(lambda: beta_row(f, spec, b)) == beta_row(f, spec, b) == row
    assert blocked(lambda: beta_ab(f, spec, a, b)) == beta_ab(f, spec, a, b) == pair_key_beta_count(f, spec, a, b)
    if b and u in (1, f.minus_one):
        counts = blocked(lambda: bijkl_counts(f, spec, b))
        assert counts == bijkl_counts(f, spec, b)
        assert counts.total == row


@_SETTINGS
@given(data=st.data())
def test_blocked_beta_profile(data):
    # u = +-1 has a zero-difference class of about q/4 members, past sqrt(q)
    # once q > 16, which takes the mixed path (that class to
    # outer_diff_hist, the rest to the pair kernel); a generic u with a
    # small r mostly has small classes only
    f = data.draw(fields())
    mixed = data.draw(st.booleans())
    u = data.draw(st.sampled_from([1, f.minus_one])) if mixed else data.draw(st.integers(2, max(2, f.q - 2)))
    spec = BinomialSpec(data.draw(st.integers(1, 12) | st.integers(1, 2 * f.q)), u)
    a = data.draw(st.sampled_from([1, f.q - 1]) | st.integers(1, f.q - 1))
    profile = blocked(lambda: beta_profile(f, spec, a))
    assert np.array_equal(profile, beta_profile(f, spec, a))
    for b in {0, int(profile[1:].argmax()) + 1, data.draw(st.integers(0, f.q - 1))}:
        assert profile[b] == pair_key_beta_count(f, spec, a, b)


@pytest.mark.parametrize("p,n,u", [(23, 1, 1), (3, 5, 1), (7, 3, 6), (3, 5, 5), (7, 3, 3), (101, 1, 7)])
def test_beta_profile_paths(monkeypatch, p, n, u):
    # which path beta_profile takes: u = +-1 sends its zero-difference class
    # to outer_diff_hist (the mixed path), and these generic u send none
    # (the all-small path); either way the 7-element blocks change nothing
    f = make_field(p, n)
    spec = BinomialSpec(3 if n == 1 else 5, u)
    sizes = delta_row(f, spec)
    large = sorted(int(s) for s in sizes if s * s > f.q)
    assert bool(large) == (u in (1, f.minus_one))
    calls = []
    outer = gf.FieldSpec.outer_diff_hist
    monkeypatch.setattr(gf.FieldSpec, "outer_diff_hist", lambda self, v: calls.append(len(v)) or outer(self, v))
    expected = beta_profile(f, spec)
    assert sorted(calls) == large
    assert np.array_equal(blocked(lambda: beta_profile(f, spec)), expected)
    assert int(expected.sum()) == int((sizes * sizes).sum())
