"""Differential analysis of the binomial family.

Everything is organized around the a = 1 difference row: delta(a, b) for
general a reduces to a row lookup through the permutations b -> b/a^r and
b -> b/((-1)^(r+1) a^r) when q = 3 (mod 4), so the full (a, b) table is
never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, UnsupportedUError, ZeroShiftError
from .family import BinomialSpec, eval_table
from .gf import Elt, FieldSpec


@dataclass
class DiffSpectrum:
    """Multiplicities omega_i = #{b : delta(1, b) = i} over the a = 1 row."""

    omega: dict[int, int]
    uniformity: int


@dataclass
class DijCounts:
    """Solution counts of delta(1, b) split by the class of x; boundary
    holds the contribution of x in {0, -1}."""

    d00: int
    d01: int
    d10: int
    d11: int
    boundary: int

    @property
    def total(self) -> int:
        return self.d00 + self.d01 + self.d10 + self.d11 + self.boundary


@dataclass
class LocallyApnReport:
    strict: bool  # delta(1, b) <= 2 for all b outside the prime subfield
    star: bool  # delta(1, b) <= 2 for all b != 0
    delta10: int  # delta(1, 0)


@dataclass
class CollisionReport:
    holds: bool
    witness: tuple[Elt, Elt, Elt] | None  # (c, x1, x2) on failure


def delta_row(field: FieldSpec, spec: BinomialSpec) -> np.ndarray:
    """Histogram of F(x+1) - F(x) over all x; entry b is delta(1, b)."""
    fv = eval_table(field, spec)
    d = field.sub_arrays(fv[field.succ_table], fv)
    return np.bincount(d, minlength=field.q)


def delta_ab(field: FieldSpec, spec: BinomialSpec, a: Elt, b: Elt) -> int:
    """Number of x with F(x+a) - F(x) = b, for a != 0."""
    if a == 0:
        raise ZeroShiftError("a must be nonzero")
    fv = eval_table(field, spec)
    fa = fv[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]
    return int(np.count_nonzero(field.sub_arrays(fa, fv) == b))


def diff_spectrum(field: FieldSpec, spec: BinomialSpec) -> DiffSpectrum:
    """Spectrum of the a = 1 row, with the identity checks folded in."""
    row = delta_row(field, spec)
    counts = np.bincount(row)
    omega = {int(i): int(c) for i, c in enumerate(counts) if c}
    # sum_i omega_i counts every b once, sum_i i*omega_i every x once
    if sum(omega.values()) != field.q or sum(i * c for i, c in omega.items()) != field.q:
        raise InvariantError(f"differential spectrum {omega} breaks sum omega_i = sum i*omega_i = q = {field.q}")
    return DiffSpectrum(omega, int(row.max()))


def dij_counts(field: FieldSpec, spec: BinomialSpec, b: Elt) -> DijCounts:
    """Solutions of F(x+1) - F(x) = b partitioned by the class of x."""
    if spec.u not in (1, field.minus_one):
        raise UnsupportedUError("class decomposition requires u = +-1")
    fv = eval_table(field, spec)
    sol = field.sub_arrays(fv[field.succ_table], fv) == b
    cx = field.chi_table
    cx1 = cx[field.succ_table]
    return DijCounts(
        d00=int(np.count_nonzero(sol & (cx == 1) & (cx1 == 1))),
        d01=int(np.count_nonzero(sol & (cx == 1) & (cx1 == -1))),
        d10=int(np.count_nonzero(sol & (cx == -1) & (cx1 == 1))),
        d11=int(np.count_nonzero(sol & (cx == -1) & (cx1 == -1))),
        boundary=int(sol[0]) + int(sol[field.minus_one]),
    )


def locally_apn_check(field: FieldSpec, spec: BinomialSpec) -> LocallyApnReport:
    """Both locally-APN predicates plus delta(1, 0).

    strict restricts b to F_q minus the prime subfield; star is the stronger
    all-nonzero-b form.
    """
    row = delta_row(field, spec)
    return LocallyApnReport(
        strict=bool(row[field.p :].max(initial=0) <= 2),
        star=bool(row[1:].max(initial=0) <= 2),
        delta10=int(row[0]),
    )


def d00_condition(field: FieldSpec, r: int) -> CollisionReport:
    """Whether (x+1)^r - x^r = c has at most one solution x with
    chi(x) = chi(x+1) = 1, for every nonzero c."""
    pr = field.power_table(r)
    g = field.sub_arrays(pr[field.succ_table], pr)
    cx = field.chi_table
    s00 = (cx == 1) & (cx[field.succ_table] == 1)
    vals = g[s00]
    vals = vals[vals != 0]
    if len(vals) == 0:
        return CollisionReport(True, None)
    counts = np.bincount(vals)
    bad = np.flatnonzero(counts >= 2)
    if len(bad) == 0:
        return CollisionReport(True, None)
    c = int(bad[0])
    xs = np.flatnonzero(s00 & (g == c))
    return CollisionReport(False, (c, int(xs[0]), int(xs[1])))
