"""Property checks of the fast kernels on random small fields.

Fields are F_{p^n} with p <= 31 and q <= 3^7, and for the prime-field legs
F_p with p < 600 (p < 50 where the oracle is quadratic in q).  Examples are
derandomized and bounded, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ffbinom.boom import beta_ab, beta_profile, beta_row, bijkl_counts
from ffbinom.diff import d00_condition, dij_counts
from ffbinom.family import BinomialSpec, eval_table, evaluate
from ffbinom.gf import is_prime, make_field

from naive_oracles import (
    digit_add,
    digit_sub,
    naive_beta_count,
    naive_chi,
    naive_d00_condition,
    naive_dij_counts,
    naive_eval,
    naive_shift_difference,
    packed_runs,
    pair_key_beta_count,
    pairwise_diff_hist,
    pow_slow,
    raw_mul,
)

_FIELDS = [(p, n) for p in range(3, 32) if is_prime(p) for n in range(1, 8) if p**n <= 3**7]

_PRIMES = [p for p in range(3, 600) if is_prime(p)]

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def fields(draw):
    return make_field(*draw(st.sampled_from(_FIELDS)))


@st.composite
def prime_fields(draw, below: int = 600):
    return make_field(draw(st.sampled_from([p for p in _PRIMES if p < below])), 1)


def shifts(f):
    # the edges of the rotation (a = 1, a = q - 1 and the middle) and any
    # nonzero element
    return st.sampled_from([1, f.q - 1, f.q // 2, f.q // 2 + 1]) | st.integers(1, f.q - 1)


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
    assert (f.run_diff_hist(*packed_runs(runs)) == expected).all()


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


@_SETTINGS
@given(data=st.data())
def test_scalar_arithmetic_matches_table_free_oracles(data):
    # the table lookups of mul, inv, pow and chi against polynomial products
    # and square-and-multiply, with zero drawn often, and the field laws
    f = data.draw(fields())
    element = st.just(0) | st.sampled_from([1, 2, f.minus_one]) | st.integers(0, f.q - 1)
    a, b, c = (data.draw(element) for _ in range(3))
    e = data.draw(st.sampled_from([0, 1, 2, (f.q - 1) // 2, f.q - 2, f.q - 1, f.q]) | st.integers(0, 3 * f.q))
    assert f.mul(a, b) == raw_mul(f, a, b)
    assert f.pow(a, e) == pow_slow(f, a, e)
    assert f.chi(a) == naive_chi(f, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for x in {a, b, c} - {0}:
        assert f.inv(x) == pow_slow(f, x, f.q - 2)
        assert f.mul(x, f.inv(x)) == 1


@_SETTINGS
@given(data=st.data())
def test_prime_field_shift_difference_matches_scalar_oracle(data):
    # values drawn anywhere in [0, q), or pinned to the extremes 0 and q - 1
    # where the differences are largest; the row must be canonical
    f = data.draw(prime_fields())
    a = data.draw(shifts(f))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    extremes = data.draw(st.booleans())
    values = rng.choice([0, f.q - 1], f.q) if extremes else rng.integers(0, f.q, f.q)
    row = f.shift_difference(values, a)
    assert row.min() >= 0 and row.max() < f.q
    assert row.tolist() == naive_shift_difference(f, values, a)


@_SETTINGS
@given(data=st.data())
def test_eval_table_matches_naive_eval(data):
    # u in {0, 1, -1} (a factor 1 + u or 1 - u of 0 or both factors 1) and
    # any element; on F_p every x is checked, on F_{p^n} drawn x and both
    # parities of the log (x = 1 and x = g)
    f = data.draw(fields() | prime_fields())
    u = data.draw(st.sampled_from([0, 1, f.minus_one]) | st.integers(0, f.q - 1))
    r = data.draw(st.integers(1, 2 * f.q) | st.sampled_from([f.q - 1, 2 * (f.q - 1)]))
    spec = BinomialSpec(r, u)
    values = eval_table(f, spec)
    if f.n == 1:
        xs = list(f.elements())
    else:
        xs = data.draw(st.lists(st.integers(0, f.q - 1), max_size=12)) + [0, 1, f.generator, f.minus_one]
    assert [int(values[x]) for x in xs] == [naive_eval(f, spec, x) for x in xs]


@_SETTINGS
@given(data=st.data())
def test_prime_field_beta_profile_matches_naive_count(data):
    # b = 0, the largest entry and a few drawn targets, since the oracle
    # forms all q^2 pairs per b
    f = data.draw(prime_fields(below=50))
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), data.draw(st.integers(0, f.q - 1)))
    a = data.draw(shifts(f))
    profile = beta_profile(f, spec, a)
    bs = {0, int(profile[1:].argmax()) + 1, *data.draw(st.lists(st.integers(0, f.q - 1), max_size=2))}
    for b in sorted(bs):
        assert profile[b] == naive_beta_count(f, spec, a, b)


@_SETTINGS
@given(data=st.data())
def test_boomerang_counts_match_pair_key_oracle(data):
    # b = 0 (every x pairs with itself), +-1, F(x) - F(y) for drawn x and y
    # (the first equation has a solution) and any element; u in {0, +-1}
    # or any element, and bijkl_counts where it applies (u = +-1, b != 0)
    f = data.draw(fields() | prime_fields())
    u = data.draw(st.sampled_from([0, 1, f.minus_one]) | st.integers(0, f.q - 1))
    spec = BinomialSpec(data.draw(st.integers(1, 2 * f.q)), u)
    a = data.draw(shifts(f))
    x, y = data.draw(st.integers(0, f.q - 1)), data.draw(st.integers(0, f.q - 1))
    values = eval_table(f, spec)
    b = data.draw(st.sampled_from([0, 1, f.minus_one, f.sub(int(values[x]), int(values[y]))]) | st.integers(0, f.q - 1))
    row = pair_key_beta_count(f, spec, 1, b)
    assert beta_row(f, spec, b) == row
    assert beta_ab(f, spec, a, b) == pair_key_beta_count(f, spec, a, b)
    if b and u in (1, f.minus_one):
        assert bijkl_counts(f, spec, b).total == row


@_SETTINGS
@given(data=st.data())
def test_within_row_diff_hist_without_pairs(data):
    # every run a singleton: no pair is formed, and only the zero difference
    # of each value with itself is counted
    f = data.draw(fields() | prime_fields())
    values = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=40))
    expected = sum(pairwise_diff_hist(f, np.array([v], dtype=np.int64)) for v in values)
    assert (f.run_diff_hist(*packed_runs([[v] for v in values])) == expected).all()
    empty = f.run_diff_hist(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    assert empty.shape == (f.q,) and not empty.any()
