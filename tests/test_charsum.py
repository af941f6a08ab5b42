import math

import numpy as np
import pytest

from ffbinom.charsum import gamma, lambda_sum, odd_fn_sum_check, quad_char_sum, weil_envelope
from ffbinom.errors import (
    FFBinomError,
    NotOddError,
    WrongFieldError,
    WrongResidueError,
    ZeroLeadingError,
)
from ffbinom.gf import FieldSpec, make_field


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
    assert quad_char_sum(f, 1, 0, 0) == 10  # d = 0 case
    assert quad_char_sum(f, 1, 0, 1) == -1
    assert quad_char_sum(f, 1, 1, 0) == -1
    with pytest.raises(ZeroLeadingError):
        quad_char_sum(f, 0, 1, 1)
    # every coefficient is checked before the q-long sums
    for g in (f, make_field(3, 3)):
        for bad in (-1, g.q):
            for i, name in enumerate(("a2", "a1", "a0")):
                coeffs = [1, 1, 1]
                coeffs[i] = bad
                with pytest.raises(FFBinomError, match=f"{name} = {bad} is not an element of F_{g.q}"):
                    quad_char_sum(g, *coeffs)


@pytest.mark.parametrize("p,n", [(11, 1), (13, 1), (3, 3), (5, 2)])
def test_quad_char_sum_closed_form_sweep(p, n):
    # the closed form is asserted inside; the sweep exercises both branches
    f = make_field(p, n)
    step = max(1, f.q // 9)
    degenerate = 0
    for a2 in range(1, f.q, step):
        for a1 in range(0, f.q, step):
            for a0 in range(0, f.q, step):
                value = quad_char_sum(f, a2, a1, a0)
                disc = f.sub(f.mul(a1, a1), f.mul(f.from_int(4), f.mul(a0, a2)))
                if disc == 0:
                    degenerate += 1
                    assert value == (f.q - 1) * f.chi(a2)
                else:
                    assert value == -f.chi(a2)
    assert degenerate > 0 or f.q > 81


def _table(f, fn):
    return np.array([fn(x) for x in f.elements()], dtype=np.int64)


def test_odd_fn_sum_check():
    # value tables of odd functions on F_11, F_23 and F_{3^3}, and of x^2,
    # which is even, and its first x with f(-x) != -f(x) is 1
    f11 = make_field(11, 1)
    assert odd_fn_sum_check(f11, _table(f11, lambda x: f11.mul(x, f11.sub(f11.mul(x, x), 1)))) == 0
    assert odd_fn_sum_check(f11, np.arange(11)) == 0
    f23 = make_field(23, 1)
    assert odd_fn_sum_check(f23, f23.power_table(3)) == 0
    f27 = make_field(3, 3)
    assert odd_fn_sum_check(f27, f27.power_table(5, (2, 2))) == 0
    with pytest.raises(NotOddError, match="at x = 1$"):
        odd_fn_sum_check(f11, f11.power_table(2))
    with pytest.raises(NotOddError):
        odd_fn_sum_check(f27, f27.power_table(2))
    with pytest.raises(WrongResidueError):
        odd_fn_sum_check(make_field(13, 1), np.arange(13))
    # a table of the wrong length, with a non-element or of floats
    for bad in (np.arange(10), np.array([0] * 10 + [11]), np.arange(11.0)):
        with pytest.raises(FFBinomError, match="values must hold"):
            odd_fn_sum_check(f11, bad)


def test_odd_fn_sum_check_needs_tables():
    # q = 3 (mod 4) above TABLE_LIMIT: "no tables" comes before the value
    # table is read, so a short one does not get as far as the shape check
    f = FieldSpec(16_777_259, 1)
    with pytest.raises(FFBinomError, match="no tables"):
        odd_fn_sum_check(f, np.arange(3))


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
