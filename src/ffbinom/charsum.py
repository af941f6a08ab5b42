"""Exact evaluation of the quadratic-character sums behind the spectra.

All sums are accumulated as exact integers; the only floating point is the
reported envelope, and tightness checks square integers instead of comparing
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    FFBinomError,
    InvariantError,
    NotOddError,
    WrongFieldError,
    WrongResidueError,
    ZeroLeadingError,
)
from .gf import Elt, FieldSpec, _pgcd, _pmul, _ptrim


@dataclass
class CharSumResult:
    value: int
    bound: float
    tight: bool  # |value| <= bound, decided in integer arithmetic


def weil_envelope(q: int, d: int) -> float:
    """(d-1) * sqrt(q), the character-sum envelope for d distinct roots."""
    if d < 1:
        raise FFBinomError("d must be >= 1")
    return (d - 1) * math.sqrt(q)


def _distinct_root_count(coeffs: list[int], p: int) -> int:
    # number of distinct roots over the algebraic closure: deg f - deg gcd(f, f')
    f = _ptrim(list(c % p for c in coeffs))
    deriv = _ptrim([i * c % p for i, c in enumerate(f)][1:])
    if not deriv:
        raise FFBinomError("polynomial is inseparable; root count undefined here")
    return (len(f) - 1) - (len(_pgcd(f, deriv, p)) - 1)


def gamma(field: FieldSpec) -> CharSumResult:
    """Sum of chi(x)chi(x - alpha) over x with chi(2x^3-1) = chi(2x^3-4) = 1,
    where alpha = 2^((2q-1)/3).  Controls omega_2 of the cube binomial."""
    q = field.q
    if q % 12 != 11:
        raise WrongResidueError(f"q = {q} is not 11 mod 12")
    alpha = field.pow(field.from_int(2), (2 * q - 1) // 3)
    cubes = field.power_table(3)
    chi = field.chi_table
    t = field.mul_arrays(cubes, field.from_int(2))
    mask = (chi[field.sub_arrays(t, 1)] == 1) & (chi[field.sub_arrays(t, field.from_int(4))] == 1)
    xs = np.arange(q, dtype=np.int64)
    value = int((chi[xs][mask].astype(np.int64) * chi[field.sub_arrays(xs, alpha)][mask]).sum())
    # the proof expands 4*Gamma into one constant plus three Weil-bounded sums
    bound = (1 + 15 * math.sqrt(q)) / 4
    scaled = 4 * abs(value) - 1
    tight = scaled <= 0 or scaled * scaled <= 225 * q
    return CharSumResult(value, bound, tight)


def lambda_sum(field: FieldSpec) -> CharSumResult:
    """Sum of chi(x+1)chi(x^2+1) over the field; controls nu_1 of the square
    binomial in characteristic 3."""
    if field.p != 3 or field.n % 2 == 0:
        raise WrongFieldError("requires p = 3 and odd extension degree")
    chi = field.chi_table
    succ = field.succ_table
    squares = field.power_table(2)
    value = int((chi[succ].astype(np.int64) * chi[succ[squares]]).sum())
    # d distinct roots of (x+1)(x^2+1) over the closure, computed, not assumed
    d = _distinct_root_count(_pmul([1, 1], [1, 0, 1], field.p), field.p)
    bound = weil_envelope(field.q, d)
    tight = value * value <= (d - 1) * (d - 1) * field.q
    return CharSumResult(value, bound, tight)


def quad_char_sum(field: FieldSpec, a2: Elt, a1: Elt, a0: Elt) -> int:
    """Sum of chi(a2 x^2 + a1 x + a0) over the field.

    Closed form: -chi(a2) when the discriminant is nonzero, else
    (q-1) chi(a2); InvariantError is raised if the computed sum differs.
    """
    if a2 == 0:
        raise ZeroLeadingError("leading coefficient must be nonzero")
    xs = np.arange(field.q, dtype=np.int64)
    vals = field.add_arrays(
        field.add_arrays(field.mul_arrays(field.power_table(2), a2), field.mul_arrays(xs, a1)),
        a0,
    )
    value = int(field.chi_table[vals].astype(np.int64).sum())
    disc = field.sub(field.mul(a1, a1), field.mul(field.from_int(4), field.mul(a0, a2)))
    expected = (field.q - 1) * field.chi(a2) if disc == 0 else -field.chi(a2)
    if value != expected:
        raise InvariantError(f"quadratic character sum {value} differs from its closed form {expected}")
    return value


def odd_fn_sum_check(field: FieldSpec, f: Callable[[Elt], Elt]) -> int:
    """Sum of chi(f(x)) for an odd f when q = 3 (mod 4); always zero."""
    if field.q % 4 != 3:
        raise WrongResidueError(f"q = {field.q} is not 3 mod 4")
    for x in field.elements():
        if f(field.neg(x)) != field.neg(f(x)):
            raise NotOddError(f"f(-x) != -f(x) at x = {x}")
    value = sum(field.chi(f(x)) for x in field.elements())
    if value != 0:
        raise InvariantError(f"character sum of an odd function is {value}, not 0")
    return value
