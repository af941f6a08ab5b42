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
from .gf import FieldSpec


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
    """Sum of chi(x+1)chi(x^2+1) = chi(x^3+x^2+x+1) over F_{3^n}, n odd;
    controls nu_1 of the square binomial in characteristic 3.  It is -s_n,
    s_n = a^n + b^n for the Frobenius roots a, b of y^2 = x^3+x^2+x+1 over
    F_3 (Silverman, "The Arithmetic of Elliptic Curves", ch. V), from the
    recurrence s_k = t s_{k-1} - 3 s_{k-2}: no field table is read."""
    if field.p != 3 or field.n % 2 == 0:
        raise WrongFieldError("requires p = 3 and odd extension degree")
    # the trace t = a + b = -(sum over F_3), where chi(v) is v mod 3 read
    # as 0, 1, -1 (Euler's criterion)
    t = -sum((0, 1, -1)[(x**3 + x**2 + x + 1) % 3] for x in range(3))
    s_prev, s = 2, t
    for _ in range(field.n - 1):
        s_prev, s = s, t * s - 3 * s_prev
    value = -s
    # (x+1)(x^2+1) has 3 distinct roots over the closure: |value| <= 2 sqrt(q)
    bound = weil_envelope(field.q, 3)
    tight = value * value <= 4 * field.q
    return CharSumResult(value, bound, tight)
