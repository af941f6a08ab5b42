"""Boomerang analysis of the binomial family.

Every count here starts from one int64 key per x, D(x) << 24 | F(x) with
D(x) = F(x+a) - F(x), the shift row of FieldSpec.shift_difference, and one
builder, _diff_keys, makes them in the row's own buffer.  A pair (x, y)
solves F(x) - F(y) = b, F(x+a) - F(y+a) = b iff D(x) = D(y) and
F(y) = F(x) - b, that is iff y's key equals x's target
D(x) << 24 | (F(x) - b).  beta_row, beta_ab and bijkl_counts sort the
keys in place and count the equal pairs in one loop, _match_counts, by
searchsorted, with no np.unique and no scattered queries.  A target is a
function of its key alone, so the loop takes the targets from the sorted
keys one block at a time, and no q-long target array exists.  bijkl_counts
splits the pairs by the classes of x and y (FieldSpec.sij_table): one sort
of the keys tagged with their class codes leaves each class a sorted slice,
and the loop runs once per class of x against the slices of every class.

beta_profile sorts the keys alone, which groups x by D(x) and turns the
whole b-profile into per-group pair-difference histograms; the values leave
the sorted keys as int32, and the differences take the keys' own buffer.
Small groups go together to FieldSpec.run_diff_hist, which forms their
pairs.  Large groups go one by one to FieldSpec.outer_diff_hist, whose cost
follows their distinct values: the group of x with zero difference has
about (q+1)/4 members for locally-APN inputs, but with u = +-1 only one or
two distinct values.

No count holds more than about two live q-long arrays (the value table and
the keys) plus one block of scratch, with one exception: on F_{p^n},
beta_profile also holds the copy that run_diff_hist's negation fold makes,
and the histogram that outer_diff_hist returns beside the profile.  For
that this module uses two internals of gf: gf._blocks cuts its searchsorted
passes into blocks, and FieldSpec._sub_into forms F - b in place, where
sub_arrays would hold one more block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import FFBinomError, InvariantError, UnsupportedUError
from .family import BinomialSpec, eval_table
from .gf import TABLE_LIMIT, Elt, FieldSpec

_BIJKL_KEYS = tuple(f"{i}{j}{k}{l}" for i in "01" for j in "01" for k in "01" for l in "01")


@dataclass(slots=True)
class BoomSpectrum:
    """Multiplicities nu_i = #{b != 0 : beta(1, b) = i}.

    uniformity is the largest beta(1, b), the maximum of the a = 1 row.
    When q = 3 (mod 4) every row is the a = 1 row with b rescaled, so this
    is the boomerang uniformity; when q = 1 (mod 4) another row can be
    higher.
    Slotted, so a caller that keeps many spectra holds no per-instance
    __dict__.
    """

    nu: dict[int, int]
    uniformity: int


@dataclass(slots=True)
class BijklCounts:
    """Solutions of the a = 1 system split by the classes of x and y;
    boundary holds solutions with x or y in {0, -1}."""

    counts: dict[str, int]
    boundary: int

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.boundary


# bits of the low half of the keys: every element is at most
# TABLE_LIMIT - 1 (tables, and with them every count here, exist only up to
# there), which fits in 24 bits, so a key d << 24 | F(x) is below 2^48
_KEY_BITS = (TABLE_LIMIT - 1).bit_length()
_LOW = (1 << _KEY_BITS) - 1


def _diff_keys(field: FieldSpec, fv: np.ndarray, a: Elt) -> np.ndarray:
    """The int64 keys D(x) << 24 | F(x), with D(x) = F(x+a) - F(x), given
    fv[x] = F(x): the one key format of every boomerang count.  They are
    built in the shift-difference array, a new one that the caller owns."""
    keys = field.shift_difference(fv, a)
    keys <<= _KEY_BITS
    keys |= fv
    return keys


def _match_counts(field: FieldSpec, xs: np.ndarray, yss, b: Elt) -> list[int]:
    """For each sorted key array ys of yss, the pairs (x, y) whose key in ys
    equals the target D << 24 | (F - b) of a key D << 24 | F of xs: the one
    key-matching loop of every count here.  A target is a function of its
    key alone, so each block of xs gives its targets once, the key with
    F - b in place of its low bits, and no target array longer than a block
    exists; the keys of ys equal to a target t are those up to t and not
    below t."""
    counts = [0] * len(yss)
    for lo, hi in gf._blocks(len(xs)):
        block = xs[lo:hi]
        targets = np.bitwise_and(block, _LOW)
        field._sub_into(targets, b, targets)
        targets |= np.bitwise_and(block, ~_LOW)
        for i, ys in enumerate(yss):
            counts[i] += int(np.searchsorted(ys, targets, "right").sum()) - int(np.searchsorted(ys, targets, "left").sum())
    return counts


def beta_row(field: FieldSpec, spec: BinomialSpec, b: Elt) -> int:
    """Number of pairs (x, y) with F(x)-F(y) = b and F(x+1)-F(y+1) = b.

    The pairs where y's key D(y) << 24 | F(y) equals x's target
    D(x) << 24 | (F(x) - b), with D(x) = F(x+1) - F(x): the keys that
    beta_profile sorts, matched against the targets of each block of the
    sorted keys by two searchsorted passes, for the keys up to t and below t.
    """
    return beta_ab(field, spec, 1, b)


def beta_profile(field: FieldSpec, spec: BinomialSpec, a: Elt = 1) -> np.ndarray:
    """beta(a, b) for every b at once via the shift-difference grouping.

    x is grouped by d(x) = F(x+a) - F(x).  One sort of the keys
    d(x) << 24 | F(x) from _diff_keys lists the values F(x) class by class,
    and a shift and a mask split them again; nothing depends on the order
    inside a class.  Classes with s*s <= q go together to the pair kernel
    `FieldSpec.run_diff_hist`, at O(s^2) per class: it forms only the s(s-1)/2
    unordered pairs and bins each difference together with its negation,
    and finds the runs from the same mask of equal neighbouring differences
    that splits the classes (u outside {0, +-1} with a small r has no other
    kind).  Larger classes (the zero-difference one dominates) go one by
    one to `FieldSpec.outer_diff_hist`, which costs O(k^2 + q) for k*k <= q
    distinct values and O(q log q) by FFT above that.
    Each ordered pair within a class lands in exactly one bin, so the
    profile must sum to sum_c delta(a, c)^2, the sum of the squared class
    sizes; InvariantError is raised otherwise.

    The keys are built in the shift-difference array, which the call owns,
    and the value table is freed once they are.  The grouped values are an
    int32 copy of the sorted keys' low bits, and the differences are
    shifted down in the keys' own buffer; past those, the grouping
    allocates only the class mask and the per-class `ends` and `sizes`.
    The keys, `ends` and `sizes` are freed before the pair kernel runs, so
    its temporaries can reuse that memory instead of growing the heap,
    whose fresh pages each cost a page fault.  The large classes stay in
    place: their stretch of the class mask is cleared, so the pair kernel
    sees them as singletons, and their zero differences, which it counts
    for every value, are taken off again.
    """
    q = field.q
    keys = _diff_keys(field, eval_table(field, spec), a)
    keys.sort()
    # every value is below 2^24, so int32 holds it: astype keeps the keys'
    # low 32 bits, and the mask their low 24
    grouped = keys.astype(np.int32)
    grouped &= _LOW
    ds = np.right_shift(keys, _KEY_BITS, out=keys)
    # last[x]: position x ends a class; negated in place it becomes same[x],
    # positions x and x + 1 lie in one class
    last = np.empty(q, dtype=bool)
    np.not_equal(ds[1:], ds[:-1], out=last[:-1])
    last[-1] = True
    # the keys are dead from here: free their buffer for the pair kernel's
    # temporaries
    del ds, keys
    ends = np.flatnonzero(last)
    ends += 1
    same = np.logical_not(last, out=last)
    sizes = np.empty_like(ends)
    sizes[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=sizes[1:])
    pairs = int(np.dot(sizes, sizes))
    # the classes too large for the pair kernel, s > isqrt(q) (s * s > q with no
    # int64 product), as [start, end) bounds; then the per-class arrays are dead
    root = math.isqrt(q)
    large = []
    if int(sizes.max()) > root:
        large = [(int(ends[c] - sizes[c]), int(ends[c])) for c in np.flatnonzero(sizes > root)]
    del ends, sizes
    for start, end in large:
        # the pair kernel sees a large class as singletons: it forms none of
        # its pairs, and outer_diff_hist counts its zero differences
        same[start:end] = False
    profile = field.run_diff_hist(grouped, same)
    for start, end in large:
        profile[0] -= end - start
        profile += field.outer_diff_hist(grouped[start:end])
    if int(profile.sum()) != pairs:
        raise InvariantError(f"boomerang profile sums to {int(profile.sum())}, not {pairs} = sum of squared class sizes")
    return profile


def boom_spectrum(field: FieldSpec, spec: BinomialSpec) -> BoomSpectrum:
    """Spectrum over b != 0; beta_profile checks the sum identity."""
    profile = beta_profile(field, spec)
    # counts has one entry per value up to the largest, so its length gives
    # the uniformity without another pass (q >= 3, so profile[1:] is not empty)
    counts = np.bincount(profile[1:])
    nu = {int(i): int(counts[i]) for i in np.flatnonzero(counts)}
    return BoomSpectrum(nu, len(counts) - 1)


def beta_ab(field: FieldSpec, spec: BinomialSpec, a: Elt, b: Elt) -> int:
    """Solutions of F(x)-F(y) = b, F(x+a)-F(y+a) = b, for a != 0 (the shift
    row checks a): beta_row's sorted keys and their targets, with
    D(x) = F(x+a) - F(x)."""
    field.check_element(b, "b")
    keys = _diff_keys(field, eval_table(field, spec), a)
    keys.sort()
    return _match_counts(field, keys, [keys], b)[0]


def bijkl_counts(field: FieldSpec, spec: BinomialSpec, b: Elt) -> BijklCounts:
    """Solutions of the a = 1 system partitioned by (class(x), class(y)).

    beta_row's keys, each tagged with its sij_table code above its 48 key
    bits, block by block, and sorted once: that sorts them by class and,
    inside a class, by key.  With the tags stripped again, the five classes
    are sorted slices of one array, cut where bincount of the codes says,
    and the pairs of class cx of x and cy of y are the matches of the keys
    of cy against the targets of cx (_match_counts, one call per class of
    x).  Row and column 4 of that 5 x 5 grid, x or y in {0, -1}, are the
    boundary."""
    field.check_element(b, "b")
    if spec.u not in (1, field.minus_one):
        raise UnsupportedUError("class decomposition requires u = +-1")
    if b == 0:
        raise FFBinomError("b must be nonzero")
    codes = field.sij_table
    keys = _diff_keys(field, eval_table(field, spec), 1)
    for lo, hi in gf._blocks(field.q):
        tags = codes[lo:hi].astype(np.int64)
        tags <<= 2 * _KEY_BITS
        keys[lo:hi] |= tags
        del tags  # before the next block's are allocated
    keys.sort()
    keys &= (1 << 2 * _KEY_BITS) - 1
    cuts = np.cumsum(np.bincount(codes, minlength=5)).tolist()
    classes = [keys[lo:hi] for lo, hi in zip([0] + cuts[:-1], cuts)]
    grid = np.array([_match_counts(field, xs, classes, b) for xs in classes])
    inner = grid[:4, :4]
    return BijklCounts(dict(zip(_BIJKL_KEYS, map(int, inner.ravel()))), int(grid.sum() - inner.sum()))
