"""Exact evaluation of the quadratic-character sums behind the spectra.

All sums are accumulated as exact integers; the only floating point is the
reported envelope, and tightness checks square integers instead of comparing
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FFBinomError, WrongFieldError, WrongResidueError
from .gf import FieldSpec, _pgcd, _pmul, _ptrim


@dataclass(slots=True)
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
    t = field.power_table(3, (2, 2))
    chi = field.chi_table
    mask = (chi[field.sub_arrays(t, 1)] == 1) & (chi[field.sub_arrays(t, field.from_int(4))] == 1)
    # chi(x) * chi(x - alpha) is formed only on the x the mask keeps
    xs = np.flatnonzero(mask)
    value = int((chi[xs].astype(np.int64) * chi[field.sub_arrays(xs, alpha)]).sum())
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
    value = int((np.take(chi, succ).astype(np.int64) * np.take(chi, succ[squares])).sum())
    # d distinct roots of (x+1)(x^2+1) over the closure, computed, not assumed
    d = _distinct_root_count(_pmul([1, 1], [1, 0, 1], field.p), field.p)
    bound = weil_envelope(field.q, d)
    tight = value * value <= (d - 1) * (d - 1) * field.q
    return CharSumResult(value, bound, tight)
