"""Differential analysis of the binomial family.

Everything is organized around the a = 1 difference row: delta(a, b) for
general a reduces to a row lookup through the permutations b -> b/a^r and
b -> b/((-1)^(r+1) a^r) when q = 3 (mod 4), so the full (a, b) table is
never materialized.  Rows come from FieldSpec.shift_difference and splits
by the class of x from FieldSpec.sij_table.  row_report is the one summary
of the a = 1 row: its spectrum, locally-APN flags and the uniformity, the
one value read over every a, which diff_spectrum, locally_apn_check and
every caller outside this module read.
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

    uniformity is the differential uniformity, the largest delta(a, b) over
    every a != 0 and every b.  For a square s, F(s x) = s^r F(x), so
    delta(s a, b) = delta(a, b / s^r): the row of a is the row of 1 or of
    the generator g, a non-square, with b rescaled.  When q = 3 (mod 4),
    the case of every theorem checked here, the g row is the 1 row rescaled
    as well, and uniformity is the maximum of the a = 1 row; when
    q = 1 (mod 4) it is the maximum of the a = 1 and a = g rows.
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
    """The locally-APN flags and two values of the a = 1 row only."""

    strict: bool  # delta(1, b) <= 2 for all b outside the prime subfield
    star: bool  # delta(1, b) <= 2 for all b != 0
    delta10: int  # delta(1, 0)
    delta_max: int  # max delta(1, b) over b != 0


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


def row_report(field: FieldSpec, spec: BinomialSpec) -> tuple[DiffSpectrum, LocallyApnReport]:
    """The a = 1 row's DiffSpectrum, with the identity checks folded in,
    and its LocallyApnReport, both read from one delta_row; when
    q = 1 (mod 4) the uniformity also reads the a = g row (DiffSpectrum)."""
    row = delta_row(field, spec)
    counts = np.bincount(row)
    omega = {int(i): int(counts[i]) for i in np.flatnonzero(counts)}
    # sum_i omega_i counts every b once, sum_i i*omega_i every x once
    if sum(omega.values()) != field.q or sum(i * c for i, c in omega.items()) != field.q:
        raise InvariantError(f"differential spectrum {omega} breaks sum omega_i = sum i*omega_i = q = {field.q}")
    delta10, delta_max = int(row[0]), int(row[1:].max(initial=0))
    # b outside the prime subfield is nonzero, so star implies strict, and
    # the rest of the row is read only when star fails
    star = delta_max <= 2
    strict = star or bool(row[field.p :].max(initial=0) <= 2)
    uniformity = max(delta10, delta_max)
    if field.q % 4 == 1:
        g_row = np.bincount(field.shift_difference(eval_table(field, spec), field.generator))
        uniformity = max(uniformity, int(g_row.max()))
    return DiffSpectrum(omega, uniformity), LocallyApnReport(strict, star, delta10, delta_max)


def diff_spectrum(field: FieldSpec, spec: BinomialSpec) -> DiffSpectrum:
    """Spectrum of the a = 1 row, with the identity checks folded in, and
    the uniformity over every a."""
    return row_report(field, spec)[0]


def dij_counts(field: FieldSpec, spec: BinomialSpec, b: Elt) -> DijCounts:
    """Solutions of F(x+1) - F(x) = b partitioned by the class of x: a
    bincount of the solutions' sij_table codes, in DijCounts field order."""
    field.check_element(b, "b")
    if spec.u not in (1, field.minus_one):
        raise UnsupportedUError("class decomposition requires u = +-1")
    sol = field.shift_difference(eval_table(field, spec)) == b
    return DijCounts(*map(int, np.bincount(field.sij_table[sol], minlength=5)))


def locally_apn_check(field: FieldSpec, spec: BinomialSpec) -> LocallyApnReport:
    """Both locally-APN predicates plus delta(1, 0) and the row's maximum
    off b = 0, all of the a = 1 row.

    strict restricts b to F_q minus the prime subfield; star is the stronger
    all-nonzero-b form.
    """
    return row_report(field, spec)[1]


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
