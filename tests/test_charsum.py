import math

import pytest

from ffbinom.charsum import gamma, lambda_sum, weil_envelope
from ffbinom.errors import FFBinomError, WrongFieldError, WrongResidueError
from ffbinom.gf import make_field

from naive_oracles import chi_sum, quad_chi_sum


@pytest.mark.parametrize("q,expected", [(11, 2), (23, -3), (167, 13), (227, 0)])
def test_gamma_values(q, expected):
    res = gamma(make_field(q, 1))
    assert res.value == expected
    assert res.tight


def test_gamma_wrong_residue():
    with pytest.raises(WrongResidueError):
        gamma(make_field(13, 1))
    with pytest.raises(WrongResidueError):
        gamma(make_field(3, 3))  # 27 = 3 mod 12


@pytest.mark.parametrize("q", [11, 23, 47, 59, 71])
def test_gamma_two_evaluations_agree(q):
    # direct definition vs the expanded product form whose quarter it equals
    f = make_field(q, 1)
    e = (2 * q - 1) // 3
    alpha = f.pow(2, e)
    d2 = 0
    for x in f.elements():
        t = (1 + f.chi((2 * x - 1) % q)) * (1 + f.chi((2 * x - 4) % q))
        if t:
            d2 += t * f.chi(f.mul(x, f.sub(f.pow(x, e), alpha)))
    assert d2 % 4 == 0
    assert gamma(f).value == d2 // 4


@pytest.mark.parametrize("n,expected", [(3, -10), (5, 2), (7, 86)])
def test_lambda_values(n, expected):
    res = lambda_sum(make_field(3, n))
    assert res.value == expected
    assert res.tight
    assert res.bound == pytest.approx(2 * math.sqrt(3**n))


def test_lambda_wrong_field():
    with pytest.raises(WrongFieldError):
        lambda_sum(make_field(11, 1))
    with pytest.raises(WrongFieldError):
        lambda_sum(make_field(3, 2))


@pytest.mark.parametrize("n", [3, 5])
def test_lambda_two_evaluations_agree(n):
    # direct definition vs the alternating-sum expansion over b
    f = make_field(3, n)
    q = f.q
    e = (q + 1) // 4
    total = 0
    for b in f.elements():
        be = f.pow(b, e)
        t1 = 1 + f.chi(b) * f.chi(f.sub(be, 1))
        t2 = 1 + f.chi(f.add(be, 1))
        t3 = 1 - f.chi(f.sub(f.pow(f.add(be, 1), e), 1))
        total += t1 * t2 * t3
    assert (q + 3 - total) % 2 == 0
    assert lambda_sum(f).value == (q + 3 - total) // 2


def test_lambda_weil_bound_small_degrees():
    for n in (1, 3, 5, 7, 9):
        f = make_field(3, n)
        value = lambda_sum(f).value
        assert value * value <= 4 * f.q


def test_quad_char_sum_examples():
    f = make_field(11, 1)
    assert quad_chi_sum(f, 1, 0, 0) == 10  # d = 0 case
    assert quad_chi_sum(f, 1, 0, 1) == -1
    assert quad_chi_sum(f, 1, 1, 0) == -1


@pytest.mark.parametrize("p,n", [(11, 1), (13, 1), (3, 3), (5, 2)])
def test_quad_char_sum_closed_form_sweep(p, n):
    # closed form: -chi(a2) when the discriminant is nonzero, else
    # (q-1) chi(a2); the sweep exercises both branches
    f = make_field(p, n)
    step = max(1, f.q // 9)
    degenerate = 0
    for a2 in range(1, f.q, step):
        for a1 in range(0, f.q, step):
            for a0 in range(0, f.q, step):
                value = quad_chi_sum(f, a2, a1, a0)
                disc = f.sub(f.mul(a1, a1), f.mul(f.from_int(4), f.mul(a0, a2)))
                if disc == 0:
                    degenerate += 1
                    assert value == (f.q - 1) * f.chi(a2)
                else:
                    assert value == -f.chi(a2)
    assert degenerate > 0 or f.q > 81


def test_odd_fn_sum_check():
    # odd functions on F_11, F_23 and F_{3^3}, where q = 3 (mod 4): chi(-1)
    # = -1, so x and -x cancel in the sum of chi(f(x)), which is zero
    f11, f23, f27 = make_field(11, 1), make_field(23, 1), make_field(3, 3)
    cases = [
        (f11, lambda x: f11.mul(x, f11.sub(f11.mul(x, x), 1))),
        (f11, lambda x: x),
        (f23, lambda x: f23.pow(x, 3)),
        (f27, lambda x: f27.mul(2, f27.pow(x, 5))),
    ]
    for f, fn in cases:
        assert all(fn(f.neg(x)) == f.neg(fn(x)) for x in f.elements())
        assert chi_sum(f, fn) == 0


def test_weil_envelope():
    assert weil_envelope(27, 3) == pytest.approx(2 * math.sqrt(27))
    assert weil_envelope(101, 1) == 0.0
    assert weil_envelope(11, 4) == pytest.approx(3 * math.sqrt(11))
    with pytest.raises(FFBinomError):
        weil_envelope(11, 0)


def test_lambda_envelope_vs_value_f27():
    res = lambda_sum(make_field(3, 3))
    assert abs(res.value) == 10
    assert res.bound == pytest.approx(10.392304845413264)
    assert res.tight
