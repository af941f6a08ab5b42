"""Boomerang analysis of the binomial family.

A pair (x, y) solves the a = 1 system iff F(x+1) - F(x) = F(y+1) - F(y), so
grouping x by that shift-difference turns the whole b-profile into per-group
pair-difference histograms.  The groups come from one sort of packed int64
keys (difference, value).  Small groups are histogrammed pair by pair, over
unordered pairs only, each difference binned together with its negation.
The group of x with zero difference has about (q+1)/4 members for
locally-APN inputs; its histogram is an autocorrelation over the additive
group, computed by FFT in O(q log q) rather than O(s^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _shifted(field: FieldSpec, fv: np.ndarray, a: Elt) -> np.ndarray:
    # F(x + a) for every x
    if a == 1:
        return fv[field.succ_table]
    return fv[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]


def _beta_count(field: FieldSpec, spec: BinomialSpec, a: Elt, b: Elt) -> int:
    # matches of (F(x)-b, F(x+a)-b) against the multiset of points (F(y), F(y+a))
    fv = eval_table(field, spec)
    fa = _shifted(field, fv, a)
    uniq, cnt = np.unique(_pair_keys(field, fv, fa), return_counts=True)
    targets = _pair_keys(field, field.sub_arrays(fv, b), field.sub_arrays(fa, b))
    idx = np.minimum(np.searchsorted(uniq, targets), len(uniq) - 1)
    return int(cnt[idx[uniq[idx] == targets]].sum())


def beta_row(field: FieldSpec, spec: BinomialSpec, b: Elt) -> int:
    """Number of pairs (x, y) with F(x)-F(y) = b and F(x+1)-F(y+1) = b.

    Counts matches of (F(x)-b, F(x+1)-b) against the multiset of points
    (F(y), F(y+1)) in one pass.
    """
    return _beta_count(field, spec, 1, b)


def beta_profile(field: FieldSpec, spec: BinomialSpec, a: Elt = 1) -> np.ndarray:
    """beta(a, b) for every b at once via the shift-difference grouping.

    x is grouped by d(x) = F(x+a) - F(x): one sort of the packed keys
    d(x)*q + F(x) lists the values F(x) class by class, and nothing depends
    on the order inside a class.  Classes with s*s <= q go together to the
    pair kernel `_within_row_diff_hist`, at O(s^2) per class: it forms only
    the s(s-1)/2 unordered pairs and bins each difference together with its
    negation.  Larger classes (the zero-difference one dominates) go one by
    one to the O(q log q) FFT autocorrelation of `FieldSpec.outer_diff_hist`.
    Each ordered pair within a class lands in exactly one bin, so the
    profile must sum to sum_c delta(a, c)^2, the sum of the squared class
    sizes; InvariantError is raised otherwise.
    """
    if a == 0:
        raise ZeroShiftError("a must be nonzero")
    q = field.q
    fv = eval_table(field, spec)
    d = field.sub_arrays(_shifted(field, fv, a), fv)
    # one sort of the packed keys d(x)*q + F(x) lists the values class by
    # class; both parts are below q, so a key is below q^2 <= 2^48 (tables,
    # and with them this function, exist only for q <= TABLE_LIMIT = 2^24)
    keys = d * q
    keys += fv
    keys.sort()
    ds, grouped = np.divmod(keys, q)
    starts = np.flatnonzero(np.r_[True, ds[1:] != ds[:-1]])
    sizes = np.r_[starts[1:], q] - starts
    small = sizes * sizes <= q
    runs = grouped if small.all() else grouped[np.repeat(small, sizes)]
    profile = _within_row_diff_hist(field, runs, sizes[small])
    for c in np.flatnonzero(~small):
        profile += field.outer_diff_hist(grouped[starts[c] : starts[c] + sizes[c]])
    pairs = int((sizes * sizes).sum())
    if int(profile.sum()) != pairs:
        raise InvariantError(f"boomerang profile sums to {int(profile.sum())}, not {pairs} = sum of squared class sizes")
    return profile


# pair differences per bincount in _within_row_diff_hist
_PAIR_CHUNK = 1 << 20


def _within_row_diff_hist(field: FieldSpec, values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Histogram of v_i - v_j over all ordered pairs (i, j) inside each run.

    `values` holds runs of the given sizes back to back.  Only the pairs
    i < j are formed, and one of each pair's two differences is binned: the
    other is its negation, so the histogram is h(b) + h(-b), plus one zero
    difference per value for i = j.
    """
    q, n = field.q, field.n
    # same[x]: positions x and x + 1 lie in one run
    same = np.ones(len(values), dtype=bool)
    same[np.cumsum(sizes) - 1] = False
    half = np.zeros(q, dtype=np.int64)
    for diffs in _pooled(_offset_pair_diffs(field, values, same), _PAIR_CHUNK):
        half += np.bincount(diffs, minlength=q)
    # -b negates every base-p digit: j -> (p - j) % p along each axis of the
    # (p,)*n reshape, which is a flip followed by a shift by one
    hist = np.roll(np.flip(half.reshape((field.p,) * n)), 1, axis=tuple(range(n))).ravel()
    hist += half
    hist[0] += len(values)
    return hist


def _offset_pair_diffs(field: FieldSpec, values: np.ndarray, same: np.ndarray):
    # the pairs (i, i + t) inside a run, for t = 1, 2, ...: a run of size s
    # has s - t of them, and i stays while i + t + 1 is still in its run;
    # yielded in pieces of at most _PAIR_CHUNK digits
    i, t = np.flatnonzero(same), 1
    step = max(1, _PAIR_CHUNK // field.n)
    while len(i):
        for lo in range(0, len(i), step):
            first = i[lo : lo + step]
            a, b = values[first], values[first + t]
            if field.n == 1:
                # |b - a| is b - a or a - b, each in [0, q)
                yield np.abs(b - a)
            else:
                yield (field._digits[b] - field._digits[a]) % field.p @ field._pp
        i = i[same[i + t]]
        t += 1


def _pooled(pieces, size: int):
    # concatenations of consecutive pieces, each of about `size` entries
    pending, pooled = [], 0
    for piece in pieces:
        pending.append(piece)
        pooled += len(piece)
        if pooled >= size:
            yield np.concatenate(pending)
            pending, pooled = [], 0
    if pending:
        yield np.concatenate(pending)


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
    return _beta_count(field, spec, a, b)


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
