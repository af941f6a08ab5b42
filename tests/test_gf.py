import itertools

import numpy as np
import pytest

from ffbinom.errors import BadDegreeError, EvenCharacteristicError, FFBinomError, InvariantError, NonPrimeError
from ffbinom.family import BinomialSpec, eval_table
from ffbinom.gf import FieldSpec, SijClass, is_prime, make_field, prime_power

from naive_oracles import naive_chi, pairwise_diff_hist


def test_make_field_basic():
    f = make_field(11, 1)
    assert (f.p, f.n, f.q) == (11, 1, 11)
    assert f.modulus is None
    k = make_field(3, 3)
    assert k.q == 27
    assert k.modulus is not None and len(k.modulus) == 4 and k.modulus[-1] == 1


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

    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2), (5, 3)]:
        assert make_field(p, n).modulus == first_irreducible(p, n)


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
            assert f.mul(a, b) == f._raw_mul(a, b)
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
            assert f.pow(x, e) == f._pow_slow(x, e)


def test_power_table_matches_scalar_pow():
    for p, n in [(11, 1), (3, 3)]:
        f = make_field(p, n)
        for e in (0, 1, 3, f.q - 1, (2 * f.q - 1) // 3 if (2 * f.q - 1) % 3 == 0 else 7):
            table = f.power_table(e)
            assert [f.pow(x, e) for x in f.elements()] == table.tolist()


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
    assert f.sij_classify(0) is SijClass.ZERO
    assert f.sij_classify(10) is SijClass.MINUS_ONE
    assert f.sij_classify(3) is SijClass.S00
    assert f.sij_classify(2) is SijClass.S10
    for p, n in [(11, 1), (3, 3), (13, 1)]:
        k = make_field(p, n)
        tallies = {c: 0 for c in SijClass}
        for x in k.elements():
            tallies[k.sij_classify(x)] += 1
        assert tallies == k.sij_sizes()


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


def test_large_field_scalar_fallbacks():
    # orders above the table limit still get exact scalar arithmetic
    f = FieldSpec(16_777_259, 1)  # prime just above 2^24
    assert f.generator is None
    assert f.mul(3, 5) == 15
    assert f.pow(2, f.q - 1) == 1
    assert f.mul(f.inv(12345), 12345) == 1
    assert f.chi(1) == 1
    assert f.chi(0) == 0
    assert f.chi(2) in (-1, 1)
    with pytest.raises(FFBinomError):
        f.chi_table


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


@pytest.mark.parametrize("offset", [0.5, 1.0])
def test_outer_diff_hist_guards_rounding(monkeypatch, offset):
    # a bin off an integer, or an integer-valued bin that breaks the total
    f = make_field(3, 3)
    irfftn = np.fft.irfftn

    def corrupted(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        out.flat[1] += offset
        return out

    monkeypatch.setattr(np.fft, "irfftn", corrupted)
    with pytest.raises(InvariantError):
        f.outer_diff_hist(np.array([1, 2, 2, 5], dtype=np.int64))
