import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ffbinom import boom, charsum, diff, gf, predict
from ffbinom.errors import BadDegreeError, EvenCharacteristicError, FFBinomError, InvariantError, NonPrimeError, ZeroShiftError
from ffbinom.family import BinomialSpec, eval_table, table1_exponents
from ffbinom.gf import FieldSpec, SijClass, is_prime, make_field, prime_power

from naive_oracles import (
    digit_add,
    digit_sub,
    naive_chi,
    naive_eval,
    naive_shift_difference,
    pairwise_diff_hist,
    pow_slow,
    raw_mul,
    sequential_tables,
    sij_classify,
)


def test_make_field_basic():
    f = make_field(11, 1)
    assert (f.p, f.n, f.q) == (11, 1, 11)
    assert f.modulus is None
    k = make_field(3, 3)
    assert k.q == 27
    assert k.modulus is not None and len(k.modulus) == 4 and k.modulus[-1] == 1


def test_make_field_cache_keeps_recent_fields():
    # two fields used in turn stay cached while a few others come and go:
    # scan_exponents looks its field up again by (p, n), which must not
    # build the tables a second time
    make_field.cache_clear()
    a, b = make_field(107, 1), make_field(7, 3)
    for p, n in [(11, 1), (3, 3), (107, 1), (7, 3), (19, 1)]:
        make_field(p, n)
        assert make_field(107, 1) is a and make_field(7, 3) is b
    make_field.cache_clear()  # clearing still works, as the benchmark does
    assert make_field(107, 1) is not a


def test_field_sweep_memory_is_bounded():
    # a library sweep over the 344 du fields up to 5000: the cache keeps a
    # few fields, so the traced peak is a small multiple of the largest
    # field's tables (7.4 of them here); an unbounded cache kept every
    # field, 160 times those tables
    make_field.cache_clear()
    tracemalloc.start()
    try:
        swept = []
        for fld in predict.fields_for("du", 5000):
            for fam in table1_exponents(fld):
                assert predict.verify(fld, "du", fam.r).match
            swept.append((fld.p, fld.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(swept) == 344
    tracemalloc.start()
    try:
        largest = FieldSpec(*swept[-1])
        tables = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert largest.q == max(p**n for p, n in swept)
    assert peak < 12 * tables


def test_make_field_errors():
    with pytest.raises(NonPrimeError):
        make_field(9, 1)
    with pytest.raises(NonPrimeError):
        make_field(15, 1)
    with pytest.raises(EvenCharacteristicError):
        make_field(2, 4)
    with pytest.raises(BadDegreeError):
        FieldSpec(11, 0)
    with pytest.raises(BadDegreeError):
        FieldSpec(3, 41)  # 3^41 > 2^63


def test_is_prime_and_prime_power():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power(27) == (3, 3)
    assert prime_power(121) == (11, 2)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_modulus_is_lex_smallest():
    # independent oracle: enumerate monic polynomials in low-degree-first
    # lexicographic order and take the first with no monic divisor of lower
    # positive degree
    def divides(g, f, p):
        rem = list(f)
        while len(rem) >= len(g):
            c = rem[-1]
            if c:
                off = len(rem) - len(g)
                for j, gj in enumerate(g):
                    rem[off + j] = (rem[off + j] - c * gj) % p
            rem.pop()
        return not any(rem)

    def first_irreducible(p, n):
        for tail in itertools.product(range(p), repeat=n):
            f = list(tail) + [1]
            reducible = False
            for d in range(1, n // 2 + 1):
                for gt in itertools.product(range(p), repeat=d):
                    if divides(list(gt) + [1], f, p):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                return tuple(f)

    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2), (5, 3), (3, 4), (3, 5), (3, 6), (5, 4), (7, 3),
                 (3, 7), (3, 8), (13, 3), (19, 3), (23, 3), (7, 4), (5, 5)]:
        assert make_field(p, n).modulus == first_irreducible(p, n)


@pytest.mark.parametrize("p,n", [(3, 9), (3, 10), (3, 12), (3, 15), (5, 6), (5, 10), (7, 6), (7, 8),
                                 (11, 6), (31, 4), (61, 4), (4093, 2), (251, 3)])
def test_batched_modulus_search_matches_rabin_per_candidate(p, n):
    # the companion-matrix search against is_irreducible, one candidate at a
    # time in the same order, on degrees with one, two and three prime factors
    expected = next((*tail, 1) for tail in itertools.product(range(1, p), *[range(p)] * (n - 1))
                    if gf.is_irreducible([*tail, 1], p))
    assert gf.smallest_irreducible(p, n) == expected


@pytest.mark.parametrize("p,n", [(11, 1), (257, 1), (1019, 1), (100003, 1),
                                 (3, 3), (3, 7), (5, 4), (7, 3), (13, 3), (19, 3), (23, 3)])
def test_tables_match_sequential_build(monkeypatch, p, n):
    # q - 1 = 256 fills the last doubling round; every other order leaves it
    # partial.  A 7-row chunk puts chunk edges inside every round.  On
    # F_{13^3}, F_{19^3} and F_{23^3} the generator is not the first
    # candidate X = p.
    # The q-long tables are read-only int32, 4 bytes an entry, and chi is
    # int8; the oracle's int64 values must match them exactly.
    g, exp, log, chi = sequential_tables(make_field(p, n))
    monkeypatch.setattr(gf, "_BUILD_CHUNK", 7)
    for f in (make_field(p, n), FieldSpec(p, n)):
        assert f.generator == g
        for table, ref in ((f._exp, exp), (f._log, log), (f._chi, chi)):
            assert table.shape == ref.shape
            assert table.tolist() == ref.tolist()
        assert f._chi.dtype == np.int8 and not f._chi.flags.writeable
        for table in (f._exp, f._log, f.succ_table, f._zech):
            assert table.dtype == np.int32 and table.itemsize == 4
            assert not table.flags.writeable
    xs = range(f.q) if f.q < 5000 else range(0, f.q, 97)
    assert [int(f.succ_table[x]) for x in xs] == [f.add(x, 1) for x in xs]
    assert f._zech.tolist() == log[f.succ_table[exp]].tolist()


@pytest.mark.parametrize("p,n", [(3, 11), (131111, 1)])
def test_log_products_past_int32(p, n):
    # Above q = 46 341 a log times an exponent passes 2^31, which int32 logs
    # would wrap.  Table readers against the table-free oracles at sampled x,
    # with r = q - 2 and r = (2q - 1)/3 (rounded down on F_{3^11}), and u in
    # {1, -1, 5}; the value arrays stay int64.
    f = make_field(p, n)
    q = f.q
    rng = np.random.default_rng(13)
    xs = np.unique(np.concatenate([[0, 1, 2, q - 2, q - 1], rng.integers(0, q, 40)]))
    ys = rng.permutation(xs)
    ys[:3] = [0, 1, q - 1]
    for r in (q - 2, (2 * q - 1) // 3):
        assert (q - 2) * r >= 2**31
        table = f.power_table(r)
        assert table.dtype == np.int64
        expected = [pow_slow(f, x, r) for x in xs.tolist()]
        assert table[xs].tolist() == expected
        assert [f.pow(x, r) for x in xs.tolist()] == expected
        # the logs of the scales are added to those products
        scale = (5, q - 2)
        scaled = f.power_table(r, scale)
        assert scaled.dtype == np.int64
        assert scaled[xs].tolist() == [raw_mul(f, y, scale[f.chi(x) < 0]) for x, y in zip(xs.tolist(), expected)]
        for u in (1, f.minus_one, 5):
            spec = BinomialSpec(r, u)
            values = eval_table(f, spec)
            assert values.dtype == np.int64
            assert values[xs].tolist() == [naive_eval(f, spec, x) for x in xs.tolist()]
    pairs = list(zip(xs.tolist(), ys.tolist()))
    products = f.mul_arrays(xs, ys)
    assert products.dtype == np.int64
    assert products.tolist() == [raw_mul(f, a, b) for a, b in pairs] == [f.mul(a, b) for a, b in pairs]
    assert all(raw_mul(f, x, f.inv(x)) == 1 for x in xs.tolist() if x)
    sums, diffs = f.add_arrays(xs, ys), f.sub_arrays(xs, ys)
    assert sums.dtype == diffs.dtype == np.int64
    assert sums.tolist() == [f.add(a, b) for a, b in pairs]
    assert diffs.tolist() == [f.sub(a, b) for a, b in pairs]


def test_table_build_uses_no_polynomial_arithmetic(monkeypatch):
    # the build and the lazy tables are numpy passes: polynomial products mod
    # the modulus are left to is_irreducible and to the test oracles
    def refuse(*args):
        raise AssertionError("polynomial arithmetic used by the table build")

    monkeypatch.setattr(gf, "_pmulmod", refuse)
    for p, n in [(1019, 1), (3, 5), (13, 3), (7, 5)]:
        f = FieldSpec(p, n)
        f.succ_table, f.sij_table, f._zech


def test_scalar_methods_reject_non_elements():
    f9, f7 = make_field(3, 2), make_field(7, 1)
    big = FieldSpec(3, 16)  # no tables
    for f, x in ((f9, 9), (f9, 10), (f9, -1), (f7, 7), (f7, -1), (big, big.q), (big, -1)):
        for call in (lambda: f.decode(x), lambda: f.chi(x), lambda: f.mul(x, 1), lambda: f.mul(1, x),
                     lambda: f.inv(x), lambda: f.pow(x, 2)):
            with pytest.raises(FFBinomError, match="not an element"):
                call()
    with pytest.raises(FFBinomError):
        f9.add(10, 1)  # was 2: decode dropped the overflow digit
    assert f7.chi(6) == -1 and f9.decode(8) == [2, 2]


def test_prime_field_add_sub_neg_reject_non_elements():
    # on F_p they used to reduce any integer (add(10, 1) was 4), while
    # F_{p^n} raised through decode; the bulk add_arrays still reduces
    f7 = make_field(7, 1)
    for x in (7, 10, -1):
        for call in (lambda: f7.add(x, 1), lambda: f7.add(1, x), lambda: f7.sub(x, 1), lambda: f7.sub(1, x),
                     lambda: f7.neg(x)):
            with pytest.raises(FFBinomError, match="not an element"):
                call()
    assert (f7.add(6, 1), f7.sub(0, 1), f7.neg(3), f7.neg(0)) == (0, 6, 4, 0)
    assert f7.add_arrays(np.array([10, -1, 6]), 1).tolist() == [4, 0, 0]


@pytest.mark.parametrize("p,n", [(11, 1), (3, 2)])
def test_shift_difference_checks_its_shift(p, n):
    # the shift row used to take any integer: on F_11, a = 11 and a = 0 gave
    # an all-zero row and a = 12 or -1 a bare ValueError; on F_9, a = -1 gave
    # a row and a = 9 or 10 an IndexError
    f = make_field(p, n)
    values = eval_table(f, BinomialSpec(3, 1))
    for a in (f.q, f.q + 1, -1):
        with pytest.raises(FFBinomError, match=f"a = {a} is not an element of F_{f.q}"):
            f.shift_difference(values, a)
    with pytest.raises(ZeroShiftError):
        f.shift_difference(values, 0)
    # the largest element is still a shift
    top = f.q - 1
    assert f.shift_difference(values, top).tolist() == naive_shift_difference(f, values, top)


def test_reduce_matches_remainder():
    # gf._reduce, e - (e // m) * m, against Python's % on negative operands
    # and on magnitudes up to (2^24 - 1)^2, the largest product of two logs
    # below TABLE_LIMIT, with and without a scratch buffer
    top = (gf.TABLE_LIMIT - 1) ** 2
    rng = np.random.default_rng(11)
    e = np.concatenate([np.arange(-40, 41), rng.integers(-top, top + 1, 5000), [top, top - 1, -top, 1 - top]])
    for m in (1, 2, 3, 10, 20010, 20011, gf.TABLE_LIMIT - 2, gf.TABLE_LIMIT - 1):
        expected = [x % m for x in e.tolist()]
        assert gf._reduce(e.copy(), m).tolist() == expected
        scratch = np.empty_like(e)
        assert gf._reduce(e.copy(), m, scratch).tolist() == expected
    assert gf._reduce(np.int64(-7), 5) == 3 and gf._reduce(-top, 7) == -top % 7


def test_north_star_field_f3_11():
    f = make_field(3, 11)
    assert f.modulus[0] != 0
    assert (np.sort(f._exp) == np.arange(1, f.q)).all()
    rng = np.random.default_rng(311)
    for k in rng.integers(0, f.q - 1, size=50).tolist():
        assert int(f._exp[k]) == pow_slow(f, f.generator, k)
        assert int(f._log[f._exp[k]]) == k
    for x in rng.integers(1, f.q, size=50).tolist():
        assert f.chi(x) == naive_chi(f, x)


def test_field_construction_deterministic():
    a = FieldSpec(3, 4)
    b = FieldSpec(3, 4)
    assert a.modulus == b.modulus
    assert a.generator == b.generator


def test_generator_has_full_order():
    for p, n in [(11, 1), (3, 3), (5, 2), (23, 1)]:
        f = make_field(p, n)
        g = f.generator
        seen = 1
        x = g
        while x != 1:
            x = f.mul(x, g)
            seen += 1
        assert seen == f.q - 1


@pytest.mark.parametrize("p,n", [(11, 1), (3, 3), (13, 1), (5, 2)])
def test_field_axioms(p, n):
    f = make_field(p, n)
    xs = range(f.q) if f.q <= 30 else range(0, f.q, 3)
    for a in xs:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.sub(a, a) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(f.inv(a), a) == 1
        for b in xs:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, b) == raw_mul(f, a, b)
            for c in (0, 1, min(2, f.q - 1), f.q - 1):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_scalar_examples_f11():
    f = make_field(11, 1)
    assert f.mul(5, 5) == 3
    assert f.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_conventions():
    f = make_field(11, 1)
    assert f.pow(2, 10) == 1
    assert f.pow(3, 5) == 1
    assert f.pow(0, 7) == 0
    assert f.pow(0, 0) == 1
    with pytest.raises(FFBinomError):
        f.pow(2, -1)


@pytest.mark.parametrize("p,n", [(11, 1), (3, 3), (11, 2), (5, 3), (3, 5)])
def test_pow_table_matches_square_and_multiply(p, n):
    f = make_field(p, n)
    exps = [0, 1, 2, 5, (f.q - 1) // 2, f.q - 2, f.q - 1, f.q, 2 * f.q - 1, 7919]
    for x in f.elements():
        for e in exps:
            assert f.pow(x, e) == pow_slow(f, x, e)


def test_power_table_matches_scalar_pow():
    # scale[0] multiplies the squares, 0 among them, and scale[1] the
    # non-squares; a zero scale zeroes its half
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        c, d = 2, f.q - 3
        for e in (0, 1, 3, f.q - 1, (2 * f.q - 1) // 3 if (2 * f.q - 1) % 3 == 0 else 7):
            table = f.power_table(e)
            assert [f.pow(x, e) for x in f.elements()] == table.tolist()
            for scale in [(1, 1), (c, c), (c, d), (0, c), (c, 0), (0, 0)]:
                expected = [f.mul(f.pow(x, e), scale[f.chi(x) < 0]) for x in f.elements()]
                assert f.power_table(e, scale).tolist() == expected
        for bad in (-1, f.q):
            for scale in [(bad, 1), (1, bad)]:
                with pytest.raises(FFBinomError, match=f"{bad} is not an element of F_{f.q}"):
                    f.power_table(2, scale)


def test_chi_values():
    f = make_field(11, 1)
    assert f.chi(0) == 0
    assert f.chi(1) == 1
    assert f.chi(2) == -1  # squares mod 11 are {1,3,4,5,9}
    assert {x for x in range(1, 11) if f.chi(x) == 1} == {1, 3, 4, 5, 9}
    for p, n in [(11, 1), (3, 3), (7, 1), (23, 1)]:
        k = make_field(p, n)
        assert k.chi(k.minus_one) == (-1 if k.q % 4 == 3 else 1)


@pytest.mark.parametrize("p,n", [(11, 1), (3, 3), (13, 1), (5, 2)])
def test_chi_matches_euler_criterion(p, n):
    f = make_field(p, n)
    assert all(f.chi(x) == naive_chi(f, x) for x in f.elements())
    assert sum(f.chi(x) for x in f.elements()) == 0


def test_encode_decode_roundtrip():
    for p, n in [(3, 3), (11, 2), (7, 1)]:
        f = make_field(p, n)
        for x in f.elements():
            assert f.encode(f.decode(x)) == x
        assert f.decode(f.minus_one) == [p - 1] + [0] * (n - 1)
    with pytest.raises(FFBinomError):
        make_field(3, 3).encode([0, 0, 3])
    with pytest.raises(FFBinomError):
        make_field(3, 3).encode([0, 0, 0, 1])


def test_sij_classify():
    f = make_field(11, 1)
    assert sij_classify(f, 0) is SijClass.ZERO
    assert sij_classify(f, 10) is SijClass.MINUS_ONE
    assert sij_classify(f, 3) is SijClass.S00
    assert sij_classify(f, 2) is SijClass.S10
    assert f.sij_table[[0, 10, 3, 2]].tolist() == [4, 4, 0, 2]
    for p, n in [(11, 1), (3, 3), (13, 1)]:
        k = make_field(p, n)
        tallies = {c: 0 for c in SijClass}
        for x in k.elements():
            tallies[sij_classify(k, x)] += 1
        assert tallies == k.sij_sizes()


_SIJ_CODES = {SijClass.S00: 0, SijClass.S01: 1, SijClass.S10: 2, SijClass.S11: 3, SijClass.ZERO: 4, SijClass.MINUS_ONE: 4}


@pytest.mark.parametrize("p,n", [(11, 1), (13, 1), (3, 3), (5, 2), (7, 3)])
def test_sij_table_matches_sij_classify(p, n):
    f = make_field(p, n)
    assert f.sij_table.dtype == np.int8
    assert f.sij_table.tolist() == [_SIJ_CODES[sij_classify(f, x)] for x in f.elements()]
    with pytest.raises(ValueError):
        f.sij_table[1] = 0


SIJ_CASES = [
    (11, 1, {SijClass.S00: 2, SijClass.S01: 3, SijClass.S10: 2, SijClass.S11: 2}),
    (3, 3, {SijClass.S00: 6, SijClass.S01: 7, SijClass.S10: 6, SijClass.S11: 6}),
    (13, 1, {SijClass.S00: 2, SijClass.S01: 3, SijClass.S10: 3, SijClass.S11: 3}),
]


@pytest.mark.parametrize("p,n,expected", SIJ_CASES)
def test_sij_sizes_examples(p, n, expected):
    sizes = make_field(p, n).sij_sizes()
    for cls, count in expected.items():
        assert sizes[cls] == count
    assert sizes[SijClass.ZERO] == 1
    assert sizes[SijClass.MINUS_ONE] == 1


@pytest.mark.parametrize("p,n", [(7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (3, 5),
                                 (5, 1), (13, 1), (17, 1), (5, 2), (11, 2), (7, 3)])
def test_sij_sizes_closed_forms(p, n):
    f = make_field(p, n)
    sizes = f.sij_sizes()
    q = f.q
    if q % 4 == 3:
        assert sizes[SijClass.S00] == sizes[SijClass.S10] == sizes[SijClass.S11] == (q - 3) // 4
        assert sizes[SijClass.S01] == (q + 1) // 4
    else:
        assert sizes[SijClass.S00] == (q - 5) // 4
        assert sizes[SijClass.S01] == sizes[SijClass.S10] == sizes[SijClass.S11] == (q - 1) // 4


def test_array_helpers_match_scalars():
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        xs = np.arange(f.q, dtype=np.int64)
        ys = np.roll(xs, 7)
        assert f.add_arrays(xs, ys).tolist() == [f.add(a, b) for a, b in zip(xs, ys)]
        assert f.sub_arrays(xs, ys).tolist() == [f.sub(a, b) for a, b in zip(xs, ys)]
        assert f.mul_arrays(xs, ys).tolist() == [f.mul(a, b) for a, b in zip(xs, ys)]
        assert f.sub_arrays(xs, 5).tolist() == [f.sub(a, 5) for a in xs]
        assert f.succ_table.tolist() == [f.add(x, 1) for x in xs]


@pytest.mark.parametrize("q", [3, 11, 1019, 16_777_259])
def test_sub_arrays_prime_field_edges(q):
    # F_p subtraction adds q to negative differences: scalars on either side,
    # 0, q - 1 and a = b against the scalar sub (16777259 has no tables, and
    # needs none for this)
    f = FieldSpec(q, 1)
    edges = np.array([0, 1, 2 % q, q - 2, q - 1], dtype=np.int64)
    xs = np.unique(np.r_[edges, np.random.default_rng(q).integers(0, q, 20)])
    for a in xs.tolist():
        assert f.sub_arrays(a, xs).tolist() == [f.sub(a, x) for x in xs.tolist()]
        assert f.sub_arrays(xs, a).tolist() == [f.sub(x, a) for x in xs.tolist()]
    assert not f.sub_arrays(xs, xs).any()
    assert f.sub_arrays(xs, xs[::-1]).tolist() == [f.sub(a, b) for a, b in zip(xs.tolist(), xs[::-1].tolist())]
    assert f.sub_arrays(0, q - 1) == 1 and f.sub_arrays(q - 1, 0) == q - 1


def test_sub_arrays_needs_canonical_operands_add_arrays_does_not():
    # the F_p contract: add_arrays reduces any integers, sub_arrays reduces
    # only differences of elements of [0, q), so q + 1 - 0 stays q + 1
    f = FieldSpec(11, 1)
    assert f.add_arrays(np.array([12, -1, 23]), 0).tolist() == [1, 10, 1]
    assert f.sub_arrays(np.array([12, 5]), 0).tolist() == [12, 5]
    assert f.sub_arrays(np.array([0]), 12).tolist() == [-1]


def _assert_zech_matches_digits(f, a, b):
    assert np.array_equal(f.sub_arrays(a, b), digit_sub(f, a, b))
    assert np.array_equal(f.add_arrays(a, b), digit_add(f, a, b))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_zech_arithmetic_every_pair(p, n):
    f = make_field(p, n)
    h = (f.q - 1) // 2
    ks = np.arange(f.q - 1)
    assert f._zech[h] == -1
    assert f._zech[ks != h].tolist() == [f._log[f.add(int(f._exp[k]), 1)] for k in ks[ks != h]]
    a, b = np.divmod(np.arange(f.q * f.q), f.q)
    _assert_zech_matches_digits(f, a, b)


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (5, 4), (7, 3), (13, 3), (23, 3)])
def test_zech_arithmetic_against_digits(p, n):
    f = make_field(p, n)
    rng = np.random.default_rng(f.q)
    a, b = rng.integers(0, f.q, (2, 4000))
    neg = digit_sub(f, 0, a)
    # zero on either side and on both, a = b and a = -b, in one array
    a[:100], b[100:200], a[200:300], b[200:300] = 0, 0, 0, 0
    b[300:400], b[400:500] = a[300:400], neg[400:500]
    _assert_zech_matches_digits(f, a, b)
    for s in (0, 1, f.q - 1, int(a[1000])):
        _assert_zech_matches_digits(f, a, s)
        _assert_zech_matches_digits(f, s, b)
        _assert_zech_matches_digits(f, s, int(b[1000]))
    # the k x 1 - k broadcast of outer_diff_hist's distinct-value path
    distinct = np.unique(np.r_[0, a[:60]])
    _assert_zech_matches_digits(f, distinct[:, None], distinct)


def test_library_never_reads_digit_table(monkeypatch):
    # every bulk path on F_{p^n} adds and subtracts by Zech's logarithms; the
    # base-p digit table is left to the test oracles
    def refuse(self):
        raise AssertionError("FieldSpec._digits read by the library")

    monkeypatch.setattr(FieldSpec, "_digits", property(refuse))
    for p, n in [(3, 5), (7, 3)]:
        f = make_field(p, n)
        for u in (0, 1, p - 1, 5):
            spec = BinomialSpec(5, u)
            boom.boom_spectrum(f, spec)
            boom.beta_ab(f, spec, 4, 7)
            diff.delta_ab(f, spec, 4, 7)
            diff.diff_spectrum(f, spec)
        diff.d00_condition(f, 5)
        charsum.quad_char_sum(f, 2, 5, 7)
        root = math.isqrt(f.q)
        for k in (root, root + 1):  # the distinct-value pairs, then the FFT
            f.outer_diff_hist(np.r_[np.arange(k), 0, 0])
    charsum.gamma(make_field(11, 3))


def test_mul_arrays_zero_operands():
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        xs = np.arange(f.q, dtype=np.int64)
        assert not f.mul_arrays(xs, 0).any()
        assert not f.mul_arrays(np.zeros(f.q, dtype=np.int64), xs).any()
        assert f.mul_arrays(xs, 2).tolist() == [f.mul(x, 2) for x in xs]
        assert f.mul_arrays(xs, xs).tolist() == [f.mul(x, x) for x in xs]


def test_large_field_scalar_fallbacks():
    # above the table limit multiplication, inversion, powering and chi fail
    # fast like the bulk operations, on zero operands too; addition and
    # subtraction stay exact
    f = FieldSpec(16_777_259, 1)  # prime just above 2^24
    assert f.generator is None
    for call in (lambda: f.mul(3, 5), lambda: f.mul(0, 5), lambda: f.inv(12345), lambda: f.inv(0),
                 lambda: f.pow(2, f.q - 1), lambda: f.pow(0, 0), lambda: f.pow(0, 3), lambda: f.chi(1),
                 lambda: f.chi(0)):
        with pytest.raises(FFBinomError, match="no tables for q = 16777259"):
            call()
    assert (f.add(f.q - 1, 2), f.sub(0, 1), f.neg(1)) == (1, f.q - 1, f.q - 1)
    assert not hasattr(FieldSpec, "_raw_mul") and not hasattr(FieldSpec, "_pow_slow")
    with pytest.raises(FFBinomError):
        f.chi_table
    with pytest.raises(FFBinomError):
        f.power_table(3)
    with pytest.raises(FFBinomError):
        f.sij_sizes()
    with pytest.raises(FFBinomError):
        f.sij_table
    # on F_{p^n} addition and subtraction need the tables too, and fail
    # before building anything q-long (q = 3^16 here)
    big = FieldSpec(3, 16)
    for op in (big.add_arrays, big.sub_arrays):
        with pytest.raises(FFBinomError):
            op(np.array([1]), 2)


def test_lazy_tables_need_field_tables():
    # succ_table and the digit table are q-long too: above the limit they
    # raise before allocating anything
    for f in (FieldSpec(16_777_259, 1), FieldSpec(3, 16)):
        for table in ("succ_table", "_digits"):
            with pytest.raises(FFBinomError, match=f"no tables for q = {f.q}"):
                getattr(f, table)


def test_outer_diff_hist():
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        vals = np.array([1, 5, 5, f.q - 1, 2], dtype=np.int64)
        hist = f.outer_diff_hist(vals)
        assert int(hist.sum()) == len(vals) ** 2
        expected = np.zeros(f.q, dtype=np.int64)
        for a in vals:
            for b in vals:
                expected[f.sub(int(a), int(b))] += 1
        assert (hist == expected).all()
        assert (hist == pairwise_diff_hist(f, vals)).all()
        empty = f.outer_diff_hist(np.array([], dtype=np.int64))
        assert empty.shape == (f.q,) and empty.dtype == np.int64 and empty.sum() == 0
    # the FFT kernel against the pairwise reference, with repeated values
    rng = np.random.default_rng(7)
    for p, n in [(1019, 1), (7, 3), (3, 6), (13, 2)]:
        f = make_field(p, n)
        for m in (1, 2, 40, f.q // 4):
            vals = rng.integers(0, f.q, size=m)
            vals[: m // 2] = vals[0]
            hist = f.outer_diff_hist(vals)
            assert hist.dtype == np.int64
            assert (hist == pairwise_diff_hist(f, vals)).all()


def test_outer_diff_hist_largest_boomerang_class():
    # the zero-difference class of x^2 * (1 - chi(x)) on F_{3^7}: 547 members
    f = make_field(3, 7)
    fv = eval_table(f, BinomialSpec(2, f.minus_one))
    d = f.sub_arrays(fv[f.succ_table], fv)
    keys, sizes = np.unique(d, return_counts=True)
    vals = fv[d == keys[sizes.argmax()]]
    assert len(vals) == (f.q + 1) // 4
    assert (f.outer_diff_hist(vals) == pairwise_diff_hist(f, vals)).all()


@pytest.mark.parametrize("p,n", [(1019, 1), (7, 3), (3, 6)])
def test_outer_diff_hist_distinct_value_path(monkeypatch, p, n):
    # k = floor(sqrt(q)) distinct values take the pair path, one more takes
    # the FFT; half the entries repeat the first value
    f = make_field(p, n)
    ffts = []
    rfftn = np.fft.rfftn

    def spy(*args, **kwargs):
        ffts.append(1)
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    rng = np.random.default_rng(f.q)
    root = math.isqrt(f.q)
    for k in (root, root + 1):
        distinct = rng.choice(f.q, size=k, replace=False)
        vals = np.concatenate([distinct, np.repeat(distinct[0], 2 * k), rng.choice(distinct, 3 * k)])
        ffts.clear()
        hist = f.outer_diff_hist(vals)
        assert len(ffts) == (k * k > f.q)
        assert hist.dtype == np.int64
        assert (hist == pairwise_diff_hist(f, vals)).all()


def test_outer_diff_hist_guards_pair_total(monkeypatch):
    # one pair too many from the weighted bincount of the distinct-value path
    f = make_field(3, 3)
    bincount = np.bincount

    def corrupted(*args, **kwargs):
        out = bincount(*args, **kwargs)
        if len(args) > 1 or "weights" in kwargs:
            out[1] += 1
        return out

    monkeypatch.setattr(np, "bincount", corrupted)
    with pytest.raises(InvariantError):
        f.outer_diff_hist(np.array([1, 2, 2, 5], dtype=np.int64))


@pytest.mark.parametrize("offset", [0.5, 1.0])
def test_outer_diff_hist_guards_rounding(monkeypatch, offset):
    # a bin off an integer, or an integer-valued bin that breaks the total;
    # six distinct values, 36 > 27, so the input reaches the FFT
    f = make_field(3, 3)
    irfftn = np.fft.irfftn

    def corrupted(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        out.flat[1] += offset
        return out

    monkeypatch.setattr(np.fft, "irfftn", corrupted)
    with pytest.raises(InvariantError):
        f.outer_diff_hist(np.array([1, 2, 2, 5, 7, 11, 20], dtype=np.int64))
