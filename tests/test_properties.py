"""Property checks of the fast kernels on random small fields.

Fields are F_{p^n} with p <= 31 and q <= 3^7.  Examples are derandomized
and bounded, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ffbinom import boom
from ffbinom.boom import beta_ab, beta_profile
from ffbinom.diff import d00_condition, dij_counts
from ffbinom.family import BinomialSpec, eval_table, evaluate
from ffbinom.gf import is_prime, make_field

from naive_oracles import (
    digit_add,
    digit_sub,
    naive_chi,
    naive_d00_condition,
    naive_dij_counts,
    naive_eval,
    packed_runs,
    pairwise_diff_hist,
)

_FIELDS = [(p, n) for p in range(3, 32) if is_prime(p) for n in range(1, 8) if p**n <= 3**7]

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def fields(draw):
    return make_field(*draw(st.sampled_from(_FIELDS)))


@_SETTINGS
@given(data=st.data())
def test_beta_profile_matches_beta_ab(data):
    f = data.draw(fields())
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), data.draw(st.integers(0, f.q - 1)))
    a = data.draw(st.integers(1, f.q - 1))
    profile = beta_profile(f, spec, a)
    # beta_ab makes one q-long pass per b: check b = 0, the largest entry and
    # a few drawn targets
    bs = {0, int(profile[1:].argmax()) + 1, *data.draw(st.lists(st.integers(0, f.q - 1), max_size=4))}
    for b in bs:
        assert profile[b] == beta_ab(f, spec, a, b)


@_SETTINGS
@given(data=st.data())
def test_within_row_diff_hist_matches_pairwise(data):
    f = data.draw(fields())
    element = st.integers(0, f.q - 1)
    # short runs drawn from a few values, so that they repeat inside a run
    pool = data.draw(st.lists(element, min_size=1, max_size=6))
    runs = data.draw(st.lists(st.lists(st.sampled_from(pool) | element, min_size=1, max_size=30), min_size=1, max_size=8))
    expected = sum(pairwise_diff_hist(f, np.array(run, dtype=np.int64)) for run in runs)
    assert (boom._within_row_diff_hist(f, *packed_runs(runs)) == expected).all()


@_SETTINGS
@given(data=st.data())
def test_outer_diff_hist_matches_pairwise(data):
    # up to 2 sqrt(q) + 2 arbitrary elements plus repeats from a small pool,
    # so that inputs land on both sides of the k*k <= q rule between the
    # distinct-value pairs and the FFT
    f = data.draw(fields())
    element = st.integers(0, f.q - 1)
    spread = data.draw(st.lists(element, max_size=2 * math.isqrt(f.q) + 2))
    pool = data.draw(st.lists(element, min_size=1, max_size=6))
    repeats = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    values = np.array(spread + repeats, dtype=np.int64)
    assert (f.outer_diff_hist(values) == pairwise_diff_hist(f, values)).all()


@_SETTINGS
@given(data=st.data())
def test_zech_add_and_sub_match_digits(data):
    # b is drawn per entry as an arbitrary element, 0, a or -a, so zero
    # operands, zero differences and zero sums all occur
    f = data.draw(fields())
    element = st.integers(0, f.q - 1)
    a = np.array(data.draw(st.lists(st.just(0) | element, min_size=1, max_size=40)), dtype=np.int64)
    size = dict(min_size=len(a), max_size=len(a))
    kind = np.array(data.draw(st.lists(st.integers(0, 3), **size)))
    other = np.array(data.draw(st.lists(element, **size)), dtype=np.int64)
    b = np.select([kind == 0, kind == 1, kind == 2], [other, 0, a], digit_sub(f, 0, a))
    assert np.array_equal(f.sub_arrays(a, b), digit_sub(f, a, b))
    assert np.array_equal(f.add_arrays(a, b), digit_add(f, a, b))


@_SETTINGS
@given(data=st.data())
def test_d00_condition_matches_scalar_oracle(data):
    # small r as well as large ones, so that the filter both holds and fails
    f = data.draw(fields())
    r = data.draw(st.integers(1, 12) | st.integers(1, 2 * f.q))
    assert d00_condition(f, r) == naive_d00_condition(f, r)


@_SETTINGS
@given(data=st.data())
def test_dij_counts_match_scalar_oracle(data):
    # b is the difference at a drawn x, so that it has solutions, or any element
    f = data.draw(fields())
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), data.draw(st.sampled_from([1, f.minus_one])))
    x = data.draw(st.integers(0, f.q - 1))
    hit = f.sub(evaluate(f, spec, f.add(x, 1)), evaluate(f, spec, x))
    b = data.draw(st.just(hit) | st.integers(0, f.q - 1))
    assert dij_counts(f, spec, b) == naive_dij_counts(f, spec, b)


@_SETTINGS
@given(data=st.data())
def test_field_tables_match_scalar_definitions(data):
    # the whole exp and log tables, and at drawn elements the character,
    # the successor and the binomial's values, against the table-free
    # scalar routines
    f = data.draw(fields())
    assert np.array_equal(np.sort(f._exp), np.arange(1, f.q))
    assert np.array_equal(f._log[f._exp], np.arange(f.q - 1))
    assert f._log[0] == -1
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), data.draw(st.integers(0, f.q - 1)))
    values = eval_table(f, spec)
    for x in data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=8)) + [0, f.minus_one]:
        assert f._chi[x] == naive_chi(f, x)
        assert f.succ_table[x] == f.add(x, 1)
        assert values[x] == naive_eval(f, spec, x)
