"""The binomial family x^r * (1 + u*chi(x)) and its special exponents.

Exponents are stored unreduced; pow() reduces them mod q-1 on nonzero inputs,
so formulas like (2q-1)/3 act as their residues on the multiplicative group
while 0^r stays 0.

Its value table is FieldSpec.power_table(r) scaled by 1 + u on squares and
1 - u on non-squares; this module reads no field table itself.

The shift-difference row follows gf's block rule: above gf._BUILD_CHUNK
elements it is formed block by block in its own array, so it holds the
value table, the row and one block of scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import FFBinomError
from .gf import Elt, FieldSpec, _reduce


@dataclass(frozen=True)
class BinomialSpec:
    """Parameters (r, u) of the binomial x^r * (1 + u*chi(x)).

    Evaluation accepts any field element u; the closed-form predictors and
    the character-class decompositions require u = +-1.
    """

    r: int
    u: Elt = 1

    def __post_init__(self):
        if self.r < 1:
            raise FFBinomError(f"exponent must be >= 1, got {self.r}")


@dataclass(frozen=True)
class ExponentFamily:
    """One special exponent applicable to a given field."""

    name: str
    r: int
    k: int | None
    gcd_order: int  # gcd(r, q-1)


def reduce_exponent(field: FieldSpec, r: int) -> int:
    """Residue of r mod q-1 acting identically on the multiplicative group."""
    rr = r % (field.q - 1)
    return field.q - 1 if rr == 0 else rr


def _check_element(field: FieldSpec, name: str, x: Elt) -> None:
    # the bulk paths index tables and rotate arrays by elements, so an
    # integer outside [0, q) would silently act as its residue or fail late
    if not 0 <= x < field.q:
        raise FFBinomError(f"{name} = {x} is not an element of F_{field.q}")


def evaluate(field: FieldSpec, spec: BinomialSpec, x: Elt) -> Elt:
    """Value of x^r * (1 + u*chi(x)), with 0 mapping to 0."""
    _check_element(field, "u", spec.u)
    if x == 0:
        return 0
    c = field.chi(x)
    factor = field.add(1, spec.u) if c == 1 else field.sub(1, spec.u)
    return field.mul(field.pow(x, spec.r), factor)


def eval_table(field: FieldSpec, spec: BinomialSpec) -> np.ndarray:
    """Values of the binomial over the whole field as an encoded int64 array:
    the power table of r scaled by 1 + u on squares and by 1 - u on
    non-squares (FieldSpec.power_table); 0 maps to 0."""
    _check_element(field, "u", spec.u)
    return field.power_table(spec.r, (field.add(1, spec.u), field.sub(1, spec.u)))


def _shifted(field: FieldSpec, values: np.ndarray, a: Elt) -> np.ndarray:
    # F(x + a) for every x; on F_p, x + a is a rotation of the index by a
    if field.n == 1:
        return np.roll(values, -a)
    if a == 1:
        return np.take(values, field.succ_table)
    return values[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]


def _shift_difference(field: FieldSpec, values: np.ndarray, a: Elt = 1) -> np.ndarray:
    """F(x + a) - F(x) for every x, given values[x] = F(x): the one place
    the difference rows, the boomerang grouping and the S00 collision filter
    form it.  The result is a new array that the caller owns.

    On F_p, x + a is x + a - q from x = q - a on, so the row is two slice
    differences written into one array, each in (-q, q), and then reduced:
    no rotated copy of the values.  On F_{p^n} it is a gather and a
    Zech-logarithm subtraction.  Up to gf._BUILD_CHUNK elements these are
    whole-array passes, the reduction a division (gf._reduce).

    Above that the row follows gf's block rule: it is formed block by block
    in the result, and nothing else q-long is allocated.  On F_p the two
    slice differences of a block are each taken and reduced by
    FieldSpec._sub_into in the block's int32 scratch from gf._blocks_into;
    on F_{p^n} a block gathers F(x + a) into its part of the result, which
    the Zech subtraction of _sub_into then overwrites.
    """
    q = field.q
    if q <= gf._BUILD_CHUNK:
        # one block: run as one block, the gather and _sub_into measured
        # 8-37 % slower than this Zech sum on F_{3^7} to F_{3^9}, and the
        # int32 sign fix-up 4-17 % slower than this division on F_20011 and
        # F_30011
        if field.n > 1:
            return field.sub_arrays(_shifted(field, values, a), values)
        d = np.empty(q, dtype=np.int64)
        np.subtract(values[a:], values[: q - a], out=d[: q - a])
        np.subtract(values[:a], values[q - a :], out=d[q - a :])
        return _reduce(d, q)
    d = np.empty(q, dtype=np.int64)
    if field.n > 1:
        for lo, hi in gf._blocks(q):
            block = d[lo:hi]
            index = field.succ_table[lo:hi] if a == 1 else field.add_arrays(np.arange(lo, hi, dtype=np.int64), a)
            np.take(values, index, out=block, mode="clip")  # "raise" would buffer out
            field._sub_into(block, values[lo:hi], block)
        return d
    for lo, hi, scratch in gf._blocks_into(d):
        mid = min(max(q - a, lo), hi)  # x + a wraps from x = q - a on
        field._sub_into(values[lo + a : mid + a], values[lo:mid], d[lo:mid], scratch[: mid - lo])
        field._sub_into(values[mid + a - q : hi + a - q], values[mid:hi], d[mid:hi], scratch[mid - lo :])
    return d


def table1_exponents(field: FieldSpec) -> list[ExponentFamily]:
    """All special exponents whose side conditions hold for this field.

    Every family needs q = 3 (mod 4); the Coulter-Matthews entries are
    restricted to 1 <= k <= n-1 with gcd(k, n) = 1, the range on which the
    underlying power map is perfect nonlinear or linearly equivalent to one.
    """
    p, n, q = field.p, field.n, field.q
    out: list[ExponentFamily] = []
    if q % 4 != 3:
        return out

    def emit(name, r, k=None):
        out.append(ExponentFamily(name, r, k, math.gcd(r, q - 1)))

    if n % 2 == 1:
        for k in range(1, n + 1):
            emit("p_power_plus_one", p**k + 1, k)
    if p == 3 and n % 2 == 1:
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                emit("coulter_matthews", (3**k + 1) // 2, k)
    if q % 12 == 11:
        emit("cube", 3)
        emit("cube_inverse", (2 * q - 1) // 3)
    if p == 3 and n % 2 == 1:
        emit("apn_half", (3 ** ((n + 1) // 2) - 1) // 2)
        emit("apn_eighth", (3 ** (n + 1) - 1) // 8)
    return out


def find_table1(field: FieldSpec, r: int) -> ExponentFamily | None:
    """Family entry whose exponent matches r as a function on F_q^x, if any."""
    target = reduce_exponent(field, r)
    for fam in table1_exponents(field):
        if reduce_exponent(field, fam.r) == target:
            return fam
    return None


def gcd_check(p: int, k: int, n: int) -> int:
    """gcd(p^k + 1, p^n - 1); equals 2 whenever n/gcd(k, n) is odd."""
    if k > n:
        raise FFBinomError("k must not exceed n")
    return math.gcd(p**k + 1, p**n - 1)


def cm_equiv_partner(n: int, k: int) -> int:
    """Exponent (3^(n-k)+1)/2 whose binomial is linearly equivalent to the
    one for (3^k+1)/2 over F_{3^n} via x -> x^(3^(n-k))."""
    if n % 2 == 0:
        raise FFBinomError("n must be odd")
    if not 1 <= k <= n - 1:
        raise FFBinomError("k must be in [1, n-1]")
    return (3 ** (n - k) + 1) // 2
