import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ffbinom import diff
from ffbinom.diff import (
    d00_condition,
    delta_ab,
    delta_row,
    diff_spectrum,
    dij_counts,
    locally_apn_check,
)
from ffbinom.errors import FFBinomError, InvariantError, UnsupportedUError, ZeroShiftError
from ffbinom.family import BinomialSpec, eval_table, table1_exponents
from ffbinom.gf import make_field

from naive_oracles import prime_delta_row, prime_spectrum


def test_delta_row_f11_cube():
    f = make_field(11, 1)
    row = delta_row(f, BinomialSpec(3, 1))
    assert row[0] == 3  # (q+1)/4
    assert int(row.sum()) == f.q
    assert int(np.count_nonzero(row == 1)) == 8
    # fully independent integer-arithmetic oracle
    ref = prime_delta_row(11, 3)
    assert row.tolist() == [ref.get(b, 0) for b in range(11)]


@pytest.mark.parametrize("q,r,expected", [
    (11, 3, {0: 2, 1: 8, 3: 1}),
    (23, 3, {0: 9, 1: 9, 2: 4, 6: 1}),
    (23, 15, {0: 10, 1: 7, 2: 5, 6: 1}),
    (11, 7, {0: 4, 1: 4, 2: 2, 3: 1}),
])
def test_diff_spectrum_prime_fields(q, r, expected):
    f = make_field(q, 1)
    spectrum = diff_spectrum(f, BinomialSpec(r, 1))
    assert spectrum.omega == expected
    assert spectrum.omega == prime_spectrum(q, r)
    assert spectrum.uniformity == max(expected)


def test_diff_spectrum_f27_square():
    f = make_field(3, 3)
    spectrum = diff_spectrum(f, BinomialSpec(2, 1))
    assert spectrum.omega == {0: 12, 1: 8, 2: 6, 7: 1}
    assert spectrum.uniformity == 7


@pytest.mark.parametrize("p,n,specs", [
    (11, 1, [BinomialSpec(3, 1)]),
    (3, 3, [BinomialSpec(2, 1), BinomialSpec(4, 1)]),
    (13, 1, [BinomialSpec(2, 1)]),
])
def test_spectrum_identities(p, n, specs):
    f = make_field(p, n)
    for spec in specs:
        s = diff_spectrum(f, spec)
        assert sum(s.omega.values()) == f.q
        assert sum(i * c for i, c in s.omega.items()) == f.q


def test_diff_spectrum_guards_identities(monkeypatch):
    row = diff.delta_row

    def corrupted(field, spec):
        out = row(field, spec)
        out[1] += 1
        return out

    monkeypatch.setattr(diff, "delta_row", corrupted)
    with pytest.raises(InvariantError):
        diff_spectrum(make_field(11, 1), BinomialSpec(3, 1))


_GUARD_UNDER_O = """
from ffbinom import diff
from ffbinom.errors import InvariantError
from ffbinom.family import BinomialSpec
from ffbinom.gf import make_field

if __debug__:
    raise SystemExit(2)
row = diff.delta_row


def corrupted(field, spec):
    out = row(field, spec)
    out[1] += 1
    return out


diff.delta_row = corrupted
try:
    diff.diff_spectrum(make_field(11, 1), BinomialSpec(3, 1))
except InvariantError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_diff_spectrum_guard_survives_optimize():
    src = str(Path(diff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", _GUARD_UNDER_O], env=env, timeout=120)
    assert done.returncode == 0


def test_delta_ab_basics():
    f = make_field(11, 1)
    spec = BinomialSpec(3, 1)
    row = delta_row(f, spec)
    for b in f.elements():
        assert delta_ab(f, spec, 1, b) == row[b]
    with pytest.raises(ZeroShiftError):
        delta_ab(f, spec, 0, 1)


@pytest.mark.parametrize("p,n", [(11, 1), (3, 2)])
def test_shift_and_target_must_be_field_elements(p, n):
    # q, q + 1 and -1 are not elements; they used to act as residues or to
    # raise a bare IndexError
    f = make_field(p, n)
    spec = BinomialSpec(3, 1)
    for a in (f.q, f.q + 1, -1):
        with pytest.raises(FFBinomError, match="a = "):
            delta_ab(f, spec, a, 1)
    for b in (f.q, -1):
        with pytest.raises(FFBinomError, match="b = "):
            delta_ab(f, spec, 1, b)
        with pytest.raises(FFBinomError, match="b = "):
            dij_counts(f, spec, b)
    with pytest.raises(ZeroShiftError):
        delta_ab(f, spec, 0, 1)
    # the largest element is still accepted on both sides
    fv = eval_table(f, spec)
    top = f.q - 1
    assert delta_ab(f, spec, top, top) == sum(f.sub(int(fv[f.add(x, top)]), int(fv[x])) == top for x in f.elements())


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (3, 3, 2), (3, 5, 2), (11, 1, 7)])
def test_delta_reduction_exhaustive(p, n, r):
    # brute rows for every shift a match the a = 1 row through the exponent-
    # dependent index maps
    f = make_field(p, n)
    spec = BinomialSpec(r, 1)
    fv = eval_table(f, spec)
    row1 = delta_row(f, spec)
    xs = np.arange(f.q, dtype=np.int64)
    for a in range(1, f.q):
        row_a = np.bincount(f.sub_arrays(fv[f.add_arrays(xs, a)], fv), minlength=f.q)
        ar = f.pow(a, r)
        if f.chi(a) == 1:
            den = ar
        else:
            den = f.neg(ar) if r % 2 == 0 else ar
        den_inv = f.inv(den)
        mapped = f.mul_arrays(xs, den_inv)
        assert (row_a == row1[mapped]).all()


def test_delta_ab_f27_nonsquare_shift():
    f = make_field(3, 3)
    spec = BinomialSpec(2, 1)
    a = 2
    assert f.chi(a) == -1
    row = delta_row(f, spec)
    for b in f.elements():
        den = f.neg(f.pow(a, 2))  # chi(a) = -1, r even
        assert delta_ab(f, spec, a, b) == row[f.mul(b, f.inv(den))]


@pytest.mark.parametrize("p,n", [(11, 1), (23, 1), (3, 3)])
def test_dij_decomposition(p, n):
    f = make_field(p, n)
    for fam in table1_exponents(f):
        spec = BinomialSpec(fam.r, 1)
        row = delta_row(f, spec)
        for b in f.elements():
            counts = dij_counts(f, spec, b)
            assert counts.total == row[b]
            boundary_expect = (1 if b == 2 % f.p else 0) + (1 if b == 0 else 0)
            assert counts.boundary == boundary_expect


def test_dij_lemma_values():
    for p, n in [(11, 1), (23, 1), (3, 3)]:
        f = make_field(p, n)
        for fam in table1_exponents(f):
            spec = BinomialSpec(fam.r, 1)
            at_zero = dij_counts(f, spec, 0)
            assert at_zero.d11 == (f.q - 3) // 4
            assert at_zero.d00 == 0  # gcd(r, q-1) divides 2
            for b in f.elements():
                counts = dij_counts(f, spec, b)
                assert counts.d01 == 0 or counts.d10 == 0
                assert counts.d01 <= 1 and counts.d10 <= 1
            for b in (0, 2 % f.p):
                counts = dij_counts(f, spec, b)
                assert counts.d01 == 0 and counts.d10 == 0


def test_dij_rejects_other_u():
    f = make_field(11, 1)
    with pytest.raises(UnsupportedUError):
        dij_counts(f, BinomialSpec(3, 5), 1)


@pytest.mark.parametrize("p,n", [(3, 5), (3, 7)])
def test_dij_decomposition_large_fields(p, n):
    # vectorized form of the class decomposition, exhaustive over b
    f = make_field(p, n)
    cx = f.chi_table
    cx1 = cx[f.succ_table]
    masks = {
        "00": (cx == 1) & (cx1 == 1),
        "01": (cx == 1) & (cx1 == -1),
        "10": (cx == -1) & (cx1 == 1),
        "11": (cx == -1) & (cx1 == -1),
    }
    import numpy as np

    for fam in table1_exponents(f):
        spec = BinomialSpec(fam.r, 1)
        fv = eval_table(f, spec)
        d = f.sub_arrays(fv[f.succ_table], fv)
        row = np.bincount(d, minlength=f.q)
        total = np.zeros(f.q, dtype=np.int64)
        for mask in masks.values():
            total += np.bincount(d[mask], minlength=f.q)
        boundary = np.zeros(f.q, dtype=np.int64)
        boundary[d[0]] += 1
        boundary[d[f.minus_one]] += 1
        assert (total + boundary == row).all()
        # scalar path agrees on a spread of b values
        for b in range(0, f.q, max(1, f.q // 7)):
            counts = dij_counts(f, spec, b)
            assert counts.total == row[b]
            assert counts.d00 == int(np.count_nonzero(masks["00"] & (d == b)))


@pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43, 47, 59, 983])
def test_lemma_d00_cube_predicate(q):
    # for r=3 and any q = 3 (mod 4) with p > 3: d00(b) = 1 iff
    # chi(2b-1) = chi(2(b-2)) = chi(3)
    f = make_field(q, 1)
    spec = BinomialSpec(3, 1)
    c3 = f.chi(3)
    for b in range(1, q):
        counts = dij_counts(f, spec, b)
        predicate = f.chi((2 * b - 1) % q) == c3 and f.chi((2 * (b - 2)) % q) == c3
        assert (counts.d00 == 1) == predicate
        assert counts.d00 <= 1


@pytest.mark.parametrize("q", [11, 23, 47, 59, 983])
def test_lemma_d01_d10_cube_predicate(q):
    # for r=3, q = 11 (mod 12): d01(b)+d10(b) = 1 iff
    # chi(b*(b^((2q-1)/3) - alpha)) = -1 with alpha = 2^((2q-1)/3)
    f = make_field(q, 1)
    spec = BinomialSpec(3, 1)
    e = (2 * q - 1) // 3
    alpha = f.pow(2, e)
    for b in range(1, q):
        counts = dij_counts(f, spec, b)
        predicate = f.chi(f.mul(b, f.sub(f.pow(b, e), alpha))) == -1
        assert (counts.d01 + counts.d10 == 1) == predicate


@pytest.mark.parametrize("q", [11, 23, 47, 59, 983])
def test_lemma_d00_cube_inverse_predicate(q):
    # for r=(2q-1)/3: d00(b) = 1 iff chi(b(32-b^3)) = 1 and chi(b(b^3-8)) = -1
    f = make_field(q, 1)
    r = (2 * q - 1) // 3
    spec = BinomialSpec(r, 1)
    for b in range(1, q):
        counts = dij_counts(f, spec, b)
        b3 = f.pow(b, 3)
        pred = (
            f.chi(f.mul(b, f.sub(f.from_int(32), b3))) == 1
            and f.chi(f.mul(b, f.sub(b3, f.from_int(8)))) == -1
        )
        assert (counts.d00 == 1) == pred


@pytest.mark.parametrize("q", [11, 23, 47, 59, 983])
def test_lemma_d01_d10_cube_inverse_predicate(q):
    f = make_field(q, 1)
    r = (2 * q - 1) // 3
    spec = BinomialSpec(r, 1)
    for b in range(1, q):
        counts = dij_counts(f, spec, b)
        pred = f.chi(f.mul(b, f.sub(f.pow(b, 3), f.from_int(8)))) == -1
        assert (counts.d01 + counts.d10 == 1) == pred


def test_locally_apn_check_examples():
    f11 = make_field(11, 1)
    report = locally_apn_check(f11, BinomialSpec(3, 1))
    assert report.star and report.strict
    assert report.delta10 == 3

    f27 = make_field(3, 3)
    report = locally_apn_check(f27, BinomialSpec(2, 1))
    assert report.star
    assert report.delta10 == 7

    # linear map: every difference lands on one value
    linear = locally_apn_check(f11, BinomialSpec(1, 0))
    assert not linear.star
    assert linear.delta10 == 0
    row = delta_row(f11, BinomialSpec(1, 0))
    assert sorted(set(row.tolist())) == [0, 11]


def test_locally_apn_strict_vs_star():
    # delta(1, 2) = (q+1)/4 for r = (q+1)/2 lands inside the prime subfield,
    # so strict holds while star fails
    f = make_field(3, 3)
    report = locally_apn_check(f, BinomialSpec(14, 1))
    assert not report.star
    assert report.strict


def test_d00_condition():
    assert d00_condition(make_field(11, 1), 3).holds
    assert d00_condition(make_field(3, 3), 2).holds
    assert d00_condition(make_field(13, 1), 2).holds  # x^2 is PN
    bad = d00_condition(make_field(3, 3), 14)
    assert not bad.holds
    c, x1, x2 = bad.witness
    f = make_field(3, 3)
    assert x1 != x2 and c != 0
    for x in (x1, x2):
        assert f.chi(x) == 1 and f.chi(f.add(x, 1)) == 1
        assert f.sub(f.pow(f.add(x, 1), 14), f.pow(x, 14)) == c


def test_theorem_du_small_fields():
    for p, n in [(11, 1), (23, 1), (3, 3), (3, 5), (3, 1)]:
        f = make_field(p, n)
        for fam in table1_exponents(f):
            row = delta_row(f, BinomialSpec(fam.r, 1))
            assert row[0] == (f.q + 1) // 4
            assert int(row[1:].max(initial=0)) <= 2
