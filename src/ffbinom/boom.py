"""Boomerang analysis of the binomial family.

A pair (x, y) solves the a = 1 system iff F(x+1) - F(x) = F(y+1) - F(y), so
grouping x by that shift-difference turns the whole b-profile into per-group
pair-difference histograms.  The group of x with zero difference has about
(q+1)/4 members for locally-APN inputs; its histogram is an autocorrelation
over the additive group, computed by FFT in O(q log q) rather than O(s^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff import _reduced_index
from .errors import FFBinomError, InvariantError, UnsupportedUError, ZeroShiftError
from .family import BinomialSpec, eval_table
from .gf import Elt, FieldSpec

_BIJKL_KEYS = tuple(f"{i}{j}{k}{l}" for i in "01" for j in "01" for k in "01" for l in "01")


@dataclass
class BoomSpectrum:
    """Multiplicities nu_i = #{b != 0 : beta(1, b) = i}."""

    nu: dict[int, int]
    uniformity: int


@dataclass
class BijklCounts:
    """Solutions of the a = 1 system split by the classes of x and y;
    boundary holds solutions with x or y in {0, -1}."""

    counts: dict[str, int]
    boundary: int

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.boundary


def _pair_keys(field: FieldSpec, fv: np.ndarray, f1: np.ndarray) -> np.ndarray:
    return fv * field.q + f1


def beta_row(field: FieldSpec, spec: BinomialSpec, b: Elt) -> int:
    """Number of pairs (x, y) with F(x)-F(y) = b and F(x+1)-F(y+1) = b.

    Counts matches of (F(x)-b, F(x+1)-b) against the multiset of points
    (F(y), F(y+1)) in one pass.
    """
    fv = eval_table(field, spec)
    f1 = fv[field.succ_table]
    keys = _pair_keys(field, fv, f1)
    uniq, cnt = np.unique(keys, return_counts=True)
    targets = _pair_keys(field, field.sub_arrays(fv, b), field.sub_arrays(f1, b))
    idx = np.searchsorted(uniq, targets)
    idx_c = np.minimum(idx, len(uniq) - 1)
    hit = uniq[idx_c] == targets
    return int(cnt[idx_c[hit]].sum())


def beta_profile(field: FieldSpec, spec: BinomialSpec, a: Elt = 1) -> np.ndarray:
    """beta(a, b) for every b at once via the shift-difference grouping.

    Classes of equal size s with s*s <= q are histogrammed together, pair by
    pair, at O(s^2) each.  Larger classes (the zero-difference one
    dominates) go one by one to the O(q log q) FFT autocorrelation of
    `FieldSpec.outer_diff_hist`.  Each ordered pair within a class lands in
    exactly one bin, so the profile must sum to sum_c delta(a, c)^2, the sum
    of the squared class sizes; InvariantError is raised otherwise.
    """
    if a == 0:
        raise ZeroShiftError("a must be nonzero")
    fv = eval_table(field, spec)
    if a == 1:
        f1 = fv[field.succ_table]
    else:
        f1 = fv[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]
    d = field.sub_arrays(f1, fv)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    starts = np.flatnonzero(np.r_[True, ds[1:] != ds[:-1]])
    sizes = np.r_[starts[1:], field.q] - starts
    profile = np.zeros(field.q, dtype=np.int64)
    # singleton classes only ever hit b = 0
    profile[0] += int(np.count_nonzero(sizes == 1))
    for s in np.unique(sizes):
        if s == 1:
            continue
        class_starts = starts[sizes == s]
        rows = fv[order[class_starts[:, None] + np.arange(s, dtype=np.int64)[None, :]]]
        if s * s <= field.q:
            profile += _within_row_diff_hist(field, rows)
        else:
            for row in rows:
                profile += field.outer_diff_hist(row)
    pairs = int((sizes * sizes).sum())
    if int(profile.sum()) != pairs:
        raise InvariantError(f"boomerang profile sums to {int(profile.sum())}, not {pairs} = sum of squared class sizes")
    return profile


def _within_row_diff_hist(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    # histogram of all within-row ordered pair differences, chunked over rows
    k, s = rows.shape
    hist = np.zeros(field.q, dtype=np.int64)
    step = max(1, 2_000_000 // (s * s * max(1, field.n)))
    for i in range(0, k, step):
        block = rows[i : i + step]
        if field.n == 1:
            diff = (block[:, :, None] - block[:, None, :]) % field.q
            hist += np.bincount(diff.ravel(), minlength=field.q)
        else:
            dg = field._digits[block]
            diff = (dg[:, :, None, :] - dg[:, None, :, :]) % field.p
            enc = diff.reshape(-1, field.n) @ field._pp
            hist += np.bincount(enc, minlength=field.q)
    return hist


def boom_spectrum(field: FieldSpec, spec: BinomialSpec) -> BoomSpectrum:
    """Spectrum over b != 0; beta_profile checks the sum identity."""
    profile = beta_profile(field, spec)
    counts = np.bincount(profile[1:])
    nu = {int(i): int(c) for i, c in enumerate(counts) if c}
    return BoomSpectrum(nu, int(profile[1:].max(initial=0)))


def beta_ab(field: FieldSpec, spec: BinomialSpec, a: Elt, b: Elt) -> int:
    """Solutions of F(x)-F(y) = b, F(x+a)-F(y+a) = b, for a != 0."""
    if a == 0:
        raise ZeroShiftError("a must be nonzero")
    fv = eval_table(field, spec)
    fa = fv[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]
    keys = _pair_keys(field, fv, fa)
    uniq, cnt = np.unique(keys, return_counts=True)
    targets = _pair_keys(field, field.sub_arrays(fv, b), field.sub_arrays(fa, b))
    idx = np.searchsorted(uniq, targets)
    idx_c = np.minimum(idx, len(uniq) - 1)
    hit = uniq[idx_c] == targets
    count = int(cnt[idx_c[hit]].sum())
    if __debug__ and field.q % 4 == 3:
        assert count == beta_row(field, spec, _reduced_index(field, spec, a, b, beta=True))
    return count


def bijkl_counts(field: FieldSpec, spec: BinomialSpec, b: Elt) -> BijklCounts:
    """Solutions of the a = 1 system partitioned by (class(x), class(y))."""
    if spec.u not in (1, field.minus_one):
        raise UnsupportedUError("class decomposition requires u = +-1")
    if b == 0:
        raise FFBinomError("b must be nonzero")
    fv = eval_table(field, spec)
    f1 = fv[field.succ_table]
    points: dict[int, list[int]] = {}
    keys = _pair_keys(field, fv, f1)
    for y, key in enumerate(keys.tolist()):
        points.setdefault(key, []).append(y)
    targets = _pair_keys(field, field.sub_arrays(fv, b), field.sub_arrays(f1, b))

    cx = field.chi_table

    def cls(x: int) -> str | None:
        if x == 0 or x == field.minus_one:
            return None
        i = 0 if cx[x] == 1 else 1
        j = 0 if cx[field.succ_table[x]] == 1 else 1
        return f"{i}{j}"

    counts = dict.fromkeys(_BIJKL_KEYS, 0)
    boundary = 0
    for x, key in enumerate(targets.tolist()):
        for y in points.get(key, ()):
            cx_, cy_ = cls(x), cls(y)
            if cx_ is None or cy_ is None:
                boundary += 1
            else:
                counts[cx_ + cy_] += 1
    return BijklCounts(counts, boundary)
