import math

import pytest

from ffbinom.boom import boom_spectrum
from ffbinom.diff import diff_spectrum
from ffbinom.errors import FFBinomError
from ffbinom.family import (
    BinomialSpec,
    cm_equiv_partner,
    eval_table,
    evaluate,
    find_table1,
    gcd_check,
    reduce_exponent,
    table1_exponents,
)
from ffbinom.gf import make_field

from naive_oracles import naive_eval


def test_binomial_spec_validation():
    assert BinomialSpec(3).u == 1
    with pytest.raises(FFBinomError):
        BinomialSpec(0)


def test_u_outside_field_rejected():
    f = make_field(11, 1)
    with pytest.raises(FFBinomError):
        evaluate(f, BinomialSpec(3, 11), 1)
    with pytest.raises(FFBinomError):
        eval_table(f, BinomialSpec(3, -1))


def test_evaluate_examples():
    f = make_field(11, 1)
    spec = BinomialSpec(3, 1)
    assert evaluate(f, spec, 0) == 0
    assert evaluate(f, spec, 3) == 10  # chi(3)=1, 2*27 mod 11
    for x in f.elements():
        if f.chi(x) == -1:
            assert evaluate(f, spec, x) == 0


def test_evaluate_power_examples():
    # u = 0 leaves the plain power map x^r
    f = make_field(11, 1)
    assert evaluate(f, BinomialSpec(3, 0), 1) == 1
    assert evaluate(f, BinomialSpec(3, 0), 2) == 8
    assert evaluate(f, BinomialSpec(7, 0), 2) == 7  # 128 mod 11


def _edge_specs(p, n):
    # u = 0, 1, -1 and one u outside {0, +-1}, so each factor 1 +- u is 0 in
    # some case; r = 1, q - 1, an unreduced 2(q - 1) + 3, one beyond int64
    # and (2q - 1)/3
    q = p**n
    us = [0, 1, p - 1] + ([p if n > 1 else 2] if q > 3 else [])
    rs = [1, q - 1, 2 * (q - 1) + 3, 2**64 + 5] + ([(2 * q - 1) // 3] if (2 * q - 1) % 3 == 0 else [])
    return [BinomialSpec(r, u) for r in rs for u in us]


@pytest.mark.parametrize("p,n,specs", [
    (11, 1, [BinomialSpec(3, 1), BinomialSpec(7, 10), BinomialSpec(2, 5)]),
    (3, 3, [BinomialSpec(2, 1), BinomialSpec(5, 26), BinomialSpec(4, 7)]),
    *[(p, n, _edge_specs(p, n)) for p, n in [(3, 1), (11, 1), (3, 3), (7, 2)]],
])
def test_eval_table_matches_definition(p, n, specs):
    f = make_field(p, n)
    for spec in specs:
        table = eval_table(f, spec)
        assert table.tolist() == [naive_eval(f, spec, x) for x in f.elements()]


@pytest.mark.parametrize("p,n", [(11, 1), (3, 3)])
def test_half_group_shift_is_pointwise_identity(p, n):
    f = make_field(p, n)
    for r in (1, 2, 3, 5):
        a = BinomialSpec(r, 1)
        b = BinomialSpec(r + (f.q - 1) // 2, 1)
        for x in f.elements():
            assert evaluate(f, a, x) == evaluate(f, b, x)


@pytest.mark.parametrize("p,n", [(7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (31, 1), (3, 5)])
def test_u_sign_flip_preserves_spectra(p, n):
    # the a = 1 row spectra agree under u -> -u only for q = 3 (mod 4); the
    # two maps are linearly equivalent for every q, but at q = 1 (mod 4) the
    # equivalence relates different rows (witnessed at q = 13, r = 2)
    f = make_field(p, n)
    for r in (2, 3, 4):
        plus = BinomialSpec(r, 1)
        minus = BinomialSpec(r, f.minus_one)
        assert diff_spectrum(f, plus).omega == diff_spectrum(f, minus).omega
        assert boom_spectrum(f, plus).nu == boom_spectrum(f, minus).nu


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cm_linear_equivalence_pointwise(n):
    f = make_field(3, n)
    for k in range(1, n):
        if math.gcd(k, n) != 1:
            continue
        spec_k = BinomialSpec((3**k + 1) // 2, 1)
        spec_partner = BinomialSpec(cm_equiv_partner(n, k), 1)
        for x in f.elements():
            lx = f.pow(x, 3 ** (n - k))
            assert evaluate(f, spec_k, lx) == evaluate(f, spec_partner, x)


def test_table1_f11():
    f = make_field(11, 1)
    fams = {(x.name, x.r) for x in table1_exponents(f)}
    assert ("cube", 3) in fams
    assert ("cube_inverse", 7) in fams
    assert ("p_power_plus_one", 12) in fams


def test_table1_f27():
    f = make_field(3, 3)
    fams = table1_exponents(f)
    by_name = {}
    for x in fams:
        by_name.setdefault(x.name, []).append(x)
    assert [(x.k, x.r) for x in by_name["coulter_matthews"]] == [(1, 2), (2, 5)]
    assert [x.r for x in by_name["apn_half"]] == [4]
    assert [x.r for x in by_name["apn_eighth"]] == [10]
    assert [(x.k, x.r) for x in by_name["p_power_plus_one"]] == [(1, 4), (2, 10), (3, 28)]
    assert "cube" not in by_name  # 27 = 3 mod 12
    for x in fams:
        assert x.gcd_order == math.gcd(x.r, f.q - 1)
        assert x.gcd_order in (1, 2)


def test_table1_applicability_limits():
    assert table1_exponents(make_field(13, 1)) == []  # q = 1 mod 4
    assert table1_exponents(make_field(3, 2)) == []  # n even, q = 1 mod 4
    f7 = table1_exponents(make_field(7, 1))  # 7 = 7 mod 12: no cube rows
    assert {x.name for x in f7} == {"p_power_plus_one"}
    f19 = table1_exponents(make_field(19, 1))  # 19 = 7 mod 12
    assert {x.name for x in f19} == {"p_power_plus_one"}


def test_table1_cm_range_excludes_k_n():
    # k = n would give r = (q+1)/2 whose power map sends all of S00 to a
    # single difference, breaking the collision condition
    for n in (3, 5, 7):
        fams = table1_exponents(make_field(3, n))
        cm_ks = [x.k for x in fams if x.name == "coulter_matthews"]
        assert n not in cm_ks
        assert all(math.gcd(k, n) == 1 for k in cm_ks)


def test_find_table1_matches_mod_group_order():
    f = make_field(3, 3)
    assert find_table1(f, 28).name == "p_power_plus_one"  # 28 = 2 mod 26
    assert find_table1(f, 2) is not None
    assert find_table1(f, 7) is None
    assert find_table1(f, 6) is None  # Frobenius-equivalent to 2 but not equal


def test_reduce_exponent():
    f = make_field(11, 1)
    assert reduce_exponent(f, 12) == 2
    assert reduce_exponent(f, 10) == 10
    assert reduce_exponent(f, 20) == 10
    assert reduce_exponent(f, 7) == 7


def test_gcd_check():
    assert gcd_check(3, 1, 3) == 2
    assert gcd_check(3, 2, 4) == 10
    assert gcd_check(5, 1, 1) == 2
    with pytest.raises(FFBinomError):
        gcd_check(3, 4, 3)
    for p, k, n in [(3, 1, 5), (5, 3, 9), (7, 2, 3), (11, 1, 7)]:
        if (n // math.gcd(k, n)) % 2 == 1:
            assert gcd_check(p, k, n) == 2


def test_cm_equiv_partner():
    assert cm_equiv_partner(3, 1) == 5
    assert cm_equiv_partner(5, 2) == 14
    assert cm_equiv_partner(3, 2) == 2
    with pytest.raises(FFBinomError):
        cm_equiv_partner(4, 1)
    with pytest.raises(FFBinomError):
        cm_equiv_partner(3, 3)
    with pytest.raises(FFBinomError):
        cm_equiv_partner(3, 0)
