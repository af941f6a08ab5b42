"""Differential analysis of the binomial family.

Everything is organized around the a = 1 difference row: delta(a, b) for
general a reduces to a row lookup through the permutations b -> b/a^r and
b -> b/((-1)^(r+1) a^r) when q = 3 (mod 4), so the full (a, b) table is
never materialized.  Rows come from FieldSpec.shift_difference and splits
by the class of x from FieldSpec.sij_table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, UnsupportedUError
from .family import BinomialSpec, eval_table
from .gf import Elt, FieldSpec


@dataclass(slots=True)
class DiffSpectrum:
    """Multiplicities omega_i = #{b : delta(1, b) = i} over the a = 1 row.

    uniformity is the largest delta(1, b), the maximum of the a = 1 row.
    When q = 3 (mod 4), the case of every theorem checked here, each a != 0
    is s or -s for a square s, each row is the a = 1 row with b rescaled,
    and this is the differential uniformity; when q = 1 (mod 4) another row
    can be higher.
    """

    omega: dict[int, int]
    uniformity: int


@dataclass(slots=True)
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


@dataclass(slots=True)
class LocallyApnReport:
    strict: bool  # delta(1, b) <= 2 for all b outside the prime subfield
    star: bool  # delta(1, b) <= 2 for all b != 0
    delta10: int  # delta(1, 0)


@dataclass(slots=True)
class CollisionReport:
    holds: bool
    witness: tuple[Elt, Elt, Elt] | None  # (c, x1, x2) on failure


def delta_row(field: FieldSpec, spec: BinomialSpec) -> np.ndarray:
    """Histogram of F(x+1) - F(x) over all x; entry b is delta(1, b)."""
    return np.bincount(field.shift_difference(eval_table(field, spec)), minlength=field.q)


def delta_ab(field: FieldSpec, spec: BinomialSpec, a: Elt, b: Elt) -> int:
    """Number of x with F(x+a) - F(x) = b, for a != 0 (the shift row
    checks a)."""
    field.check_element(b, "b")
    return int(np.count_nonzero(field.shift_difference(eval_table(field, spec), a) == b))


def diff_spectrum(field: FieldSpec, spec: BinomialSpec) -> DiffSpectrum:
    """Spectrum of the a = 1 row, with the identity checks folded in."""
    return _row_spectrum(field, delta_row(field, spec))


def _row_spectrum(field: FieldSpec, row: np.ndarray) -> DiffSpectrum:
    counts = np.bincount(row)
    omega = {int(i): int(counts[i]) for i in np.flatnonzero(counts)}
    # sum_i omega_i counts every b once, sum_i i*omega_i every x once
    if sum(omega.values()) != field.q or sum(i * c for i, c in omega.items()) != field.q:
        raise InvariantError(f"differential spectrum {omega} breaks sum omega_i = sum i*omega_i = q = {field.q}")
    return DiffSpectrum(omega, int(row.max()))


def dij_counts(field: FieldSpec, spec: BinomialSpec, b: Elt) -> DijCounts:
    """Solutions of F(x+1) - F(x) = b partitioned by the class of x: a
    bincount of the solutions' sij_table codes, in DijCounts field order."""
    field.check_element(b, "b")
    if spec.u not in (1, field.minus_one):
        raise UnsupportedUError("class decomposition requires u = +-1")
    sol = field.shift_difference(eval_table(field, spec)) == b
    return DijCounts(*map(int, np.bincount(field.sij_table[sol], minlength=5)))


def locally_apn_check(field: FieldSpec, spec: BinomialSpec) -> LocallyApnReport:
    """Both locally-APN predicates plus delta(1, 0).

    strict restricts b to F_q minus the prime subfield; star is the stronger
    all-nonzero-b form.
    """
    return _row_locally_apn(field, delta_row(field, spec))


def _row_locally_apn(field: FieldSpec, row: np.ndarray) -> LocallyApnReport:
    return LocallyApnReport(
        strict=bool(row[field.p :].max(initial=0) <= 2),
        star=bool(row[1:].max(initial=0) <= 2),
        delta10=int(row[0]),
    )


def d00_condition(field: FieldSpec, r: int) -> CollisionReport:
    """Whether (x+1)^r - x^r = c has at most one solution x with
    chi(x) = chi(x+1) = 1, for every nonzero c.

    The difference is formed on the whole field and read on S00 (sij_table
    code 0); a failure's witness is the smallest such c and its two smallest x.
    """
    g = field.shift_difference(field.power_table(r))
    # index gathers, not boolean-mask selections: S00 and the nonzero
    # differences are irregular masks, by which numpy selects several times
    # slower; s00 is ascending, so the witness x are the two smallest
    s00 = np.flatnonzero(field.sij_table == 0)
    vals = g[s00]
    del g  # the row is dead: the histogram below can reuse its memory
    counts = np.bincount(vals[np.flatnonzero(vals)])
    bad = np.flatnonzero(counts >= 2)
    if len(bad) == 0:
        return CollisionReport(True, None)
    c = int(bad[0])
    xs = s00[np.flatnonzero(vals == c)]
    return CollisionReport(False, (c, int(xs[0]), int(xs[1])))
