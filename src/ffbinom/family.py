"""The binomial family x^r * (1 + u*chi(x)) and its special exponents.

Exponents are stored unreduced; pow() reduces them mod q-1 on nonzero inputs,
so formulas like (2q-1)/3 act as their residues on the multiplicative group
while 0^r stays 0.

Its value table is FieldSpec.power_table(r) scaled by 1 + u on squares and
1 - u on non-squares; this module reads no field table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FFBinomError
from .gf import Elt, FieldSpec


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


def evaluate(field: FieldSpec, spec: BinomialSpec, x: Elt) -> Elt:
    """Value of x^r * (1 + u*chi(x)), with 0 mapping to 0."""
    field.check_element(spec.u, "u")
    if x == 0:
        return 0
    c = field.chi(x)
    factor = field.add(1, spec.u) if c == 1 else field.sub(1, spec.u)
    # for u = +-1 the factor is 0 on half the field, where no power is needed
    return field.mul(field.pow(x, spec.r), factor) if factor else 0


def eval_table(field: FieldSpec, spec: BinomialSpec) -> np.ndarray:
    """Values of the binomial over the whole field as an encoded int64 array:
    the power table of r scaled by 1 + u on squares and by 1 - u on
    non-squares (FieldSpec.power_table); 0 maps to 0."""
    field.check_element(spec.u, "u")
    return field.power_table(spec.r, (field.add(1, spec.u), field.sub(1, spec.u)))


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


def cm_equiv_partner(n: int, k: int) -> int:
    """Exponent (3^(n-k)+1)/2 whose binomial is linearly equivalent to the
    one for (3^k+1)/2 over F_{3^n} via x -> x^(3^(n-k))."""
    if n % 2 == 0:
        raise FFBinomError("n must be odd")
    if not 1 <= k <= n - 1:
        raise FFBinomError("k must be in [1, n-1]")
    return (3 ** (n - k) + 1) // 2
