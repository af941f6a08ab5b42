"""Definitional brute-force oracles for the tests.

These deliberately avoid the vectorized table paths: field arithmetic goes
through the table-free raw_mul and pow_slow below (polynomial products mod
the field's modulus, and square-and-multiply), through FieldSpec's scalar
methods one element at a time (sij_classify, naive_dij_counts,
naive_d00_condition, chi_sum) or, in bulk, through the base-p digits of the
encodings, and the prime field variants below use nothing but Python
integers.  pair_key_beta_count and pair_key_bijkl_counts are the
exceptions: they run on the library's value table, class codes and bulk
arithmetic, with the boomerang count that the library replaced by its
(D, F) keys.
"""

from collections import Counter
from enum import Enum

import numpy as np

from ffbinom.boom import BijklCounts
from ffbinom.diff import CollisionReport, DijCounts
from ffbinom.errors import FFBinomError
from ffbinom.family import BinomialSpec, eval_table, evaluate
from ffbinom.gf import FieldSpec, _pmulmod


def raw_mul(field: FieldSpec, a: int, b: int) -> int:
    """a * b by a polynomial product mod the modulus; the reference for mul()."""
    if field.n == 1:
        return a * b % field.p
    return field.encode(_pmulmod(field.decode(a), field.decode(b), field.modulus, field.p))


def pow_slow(field: FieldSpec, x: int, e: int) -> int:
    """x^e by square-and-multiply over raw_mul; the reference for pow()."""
    if e < 0:
        raise FFBinomError("exponent must be nonnegative")
    if x == 0:
        return 1 if e == 0 else 0
    e %= field.q - 1
    out, base = 1, x
    while e:
        if e & 1:
            out = raw_mul(field, out, base)
        base = raw_mul(field, base, base)
        e >>= 1
    return out


def naive_chi(field: FieldSpec, x: int) -> int:
    if x == 0:
        return 0
    return 1 if pow_slow(field, x, (field.q - 1) // 2) == 1 else -1


def naive_generator(field: FieldSpec) -> int:
    """Smallest c in [2, q) with c^((q-1)/t) != 1 for every prime t | q - 1,
    by trial division and pow_slow; the reference for
    FieldSpec._find_generator."""
    m, primes, t = field.q - 1, [], 2
    while m > 1:
        if m % t == 0:
            primes.append(t)
            while m % t == 0:
                m //= t
        t += 1
    for c in range(2, field.q):
        if all(pow_slow(field, c, (field.q - 1) // t) != 1 for t in primes):
            return c
    raise AssertionError("no generator")


def sequential_tables(field: FieldSpec) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Generator, exp, log and chi from q - 1 sequential raw_mul steps.

    The reference for the doubling build in FieldSpec._build_tables.
    """
    g = naive_generator(field)
    exp = np.empty(field.q - 1, dtype=np.int64)
    log = np.full(field.q, -1, dtype=np.int64)
    a = 1
    for i in range(field.q - 1):
        exp[i] = a
        log[a] = i
        a = raw_mul(field, a, g)
    chi = np.zeros(field.q, dtype=np.int8)
    chi[exp[0::2]] = 1
    chi[exp[1::2]] = -1
    return g, exp, log, chi


def naive_eval(field: FieldSpec, spec: BinomialSpec, x: int) -> int:
    if x == 0:
        return 0
    factor = field.add(1, spec.u) if naive_chi(field, x) == 1 else field.sub(1, spec.u)
    return raw_mul(field, pow_slow(field, x, spec.r), factor)


def naive_values(field: FieldSpec, spec: BinomialSpec) -> list[int]:
    return [naive_eval(field, spec, x) for x in field.elements()]


def naive_delta_row(field: FieldSpec, spec: BinomialSpec) -> Counter:
    fv = naive_values(field, spec)
    row = Counter()
    for x in field.elements():
        row[field.sub(fv[field.add(x, 1)], fv[x])] += 1
    return row


def naive_shift_difference(field: FieldSpec, values, a: int) -> list[int]:
    """values[x + a] - values[x] for every x, one scalar field.add and
    field.sub per x; the reference for FieldSpec.shift_difference."""
    return [field.sub(int(values[field.add(x, a)]), int(values[x])) for x in field.elements()]


def chi_sum(field: FieldSpec, fn) -> int:
    """Sum of chi(fn(x)) over the field, one scalar field.chi per x: the
    sum in the quadratic and odd-function character-sum lemmas."""
    return sum(field.chi(fn(x)) for x in field.elements())


def quad_chi_sum(field: FieldSpec, a2: int, a1: int, a0: int) -> int:
    """Sum of chi(a2 x^2 + a1 x + a0) over the field, the quadratic formed
    by Horner's rule in scalar field.mul and field.add."""
    return chi_sum(field, lambda x: field.add(field.mul(field.add(field.mul(a2, x), a1), x), a0))


class SijClass(Enum):
    """Position of x in the partition of F_q by (chi(x), chi(x+1)) signs."""

    S00 = "S00"
    S01 = "S01"
    S10 = "S10"
    S11 = "S11"
    ZERO = "Zero"
    MINUS_ONE = "MinusOne"


def sij_classify(field: FieldSpec, x: int) -> SijClass:
    """Class of x under the (chi(x), chi(x+1)) sign partition, by scalar
    field.chi and field.add; the reference for FieldSpec.sij_table."""
    if x == 0:
        return SijClass.ZERO
    if x == field.minus_one:
        return SijClass.MINUS_ONE
    i = 0 if field.chi(x) == 1 else 1
    j = 0 if field.chi(field.add(x, 1)) == 1 else 1
    return SijClass[f"S{i}{j}"]


def naive_dij_counts(field: FieldSpec, spec: BinomialSpec, b: int) -> DijCounts:
    """Solutions of F(x+1) - F(x) = b tallied by sij_classify above, one
    scalar evaluation and subtraction per x; the reference for
    diff.dij_counts."""
    fv = [evaluate(field, spec, x) for x in field.elements()]
    tally = Counter(sij_classify(field, x) for x in field.elements() if field.sub(fv[field.add(x, 1)], fv[x]) == b)
    return DijCounts(
        tally[SijClass.S00], tally[SijClass.S01], tally[SijClass.S10], tally[SijClass.S11],
        tally[SijClass.ZERO] + tally[SijClass.MINUS_ONE],
    )


def naive_d00_condition(field: FieldSpec, r: int) -> CollisionReport:
    """The S00 collision filter by scalar field.chi, field.pow and field.sub:
    on failure the smallest nonzero c with two solutions x in S00 of
    (x+1)^r - x^r = c, and its two smallest x; the reference for
    diff.d00_condition."""
    sols: dict[int, list[int]] = {}
    for x in field.elements():
        x1 = field.add(x, 1)
        if field.chi(x) == 1 and field.chi(x1) == 1:
            c = field.sub(field.pow(x1, r), field.pow(x, r))
            if c:
                sols.setdefault(c, []).append(x)
    bad = [c for c in sorted(sols) if len(sols[c]) >= 2]
    if not bad:
        return CollisionReport(True, None)
    return CollisionReport(False, (bad[0], *sols[bad[0]][:2]))


def naive_bijkl_counts(field: FieldSpec, spec: BinomialSpec) -> dict[int, BijklCounts]:
    """boom.bijkl_counts for every nonzero b, from the table-free values and
    characters: each target (F(x)-b, F(x+1)-b) is looked up in a dict of the
    points (F(y), F(y+1)), and each match is tallied by the classes of x and
    y, or as boundary when x or y is 0 or -1."""
    fv = naive_values(field, spec)
    f1 = [fv[field.add(x, 1)] for x in field.elements()]
    points: dict[tuple[int, int], list[int]] = {}
    for y in field.elements():
        points.setdefault((fv[y], f1[y]), []).append(y)

    def cls(x: int) -> str | None:
        if x == 0 or x == field.minus_one:
            return None
        i = 0 if naive_chi(field, x) == 1 else 1
        j = 0 if naive_chi(field, field.add(x, 1)) == 1 else 1
        return f"{i}{j}"

    classes = [cls(x) for x in field.elements()]
    out = {}
    for b in range(1, field.q):
        counts = {f"{i}{j}{k}{l}": 0 for i in "01" for j in "01" for k in "01" for l in "01"}
        boundary = 0
        for x in field.elements():
            for y in points.get((field.sub(fv[x], b), field.sub(f1[x], b)), ()):
                cx, cy = classes[x], classes[y]
                if cx is None or cy is None:
                    boundary += 1
                else:
                    counts[cx + cy] += 1
        out[b] = BijklCounts(counts, boundary)
    return out


def digit_add(field: FieldSpec, a, b) -> np.ndarray:
    """a + b coefficient by coefficient over the base-p encodings (either may
    be a scalar, and they broadcast); the reference for the Zech-logarithm
    FieldSpec.add_arrays."""
    return (field._digits[a] + field._digits[b]) % field.p @ field._pp


def digit_sub(field: FieldSpec, a, b) -> np.ndarray:
    """a - b coefficient by coefficient; the reference for the
    Zech-logarithm FieldSpec.sub_arrays."""
    return (field._digits[a] - field._digits[b]) % field.p @ field._pp


def pairwise_diff_hist(field: FieldSpec, values: np.ndarray) -> np.ndarray:
    """Histogram of v_i - v_j with every ordered pair formed explicitly.

    Digit-wise subtraction in row chunks, so memory stays bounded; the
    reference for FieldSpec.outer_diff_hist and the boomerang small-class
    kernel.
    """
    hist = np.zeros(field.q, dtype=np.int64)
    m = len(values)
    if m == 0:
        return hist
    if field.n == 1:
        rows = max(1, 4_000_000 // m)
        for i in range(0, m, rows):
            d = (values[i : i + rows, None] - values[None, :]) % field.q
            hist += np.bincount(d.ravel(), minlength=field.q)
    else:
        rows = max(1, 4_000_000 // (m * field.n))
        for i in range(0, m, rows):
            d = digit_sub(field, values[i : i + rows, None], values[None, :])
            hist += np.bincount(d.ravel(), minlength=field.q)
    return hist


def packed_runs(runs) -> tuple[np.ndarray, np.ndarray]:
    """Runs of encoded values back to back, with the mask same[x] that tells
    whether positions x and x + 1 lie in one run: the input layout of
    FieldSpec.run_diff_hist."""
    values = np.concatenate([np.asarray(run, dtype=np.int64) for run in runs])
    same = np.ones(len(values), dtype=bool)
    same[np.cumsum([len(run) for run in runs]) - 1] = False
    return values, same


def reduced_index(field: FieldSpec, spec: BinomialSpec, a: int, b: int, beta: bool) -> int:
    """Image of b under the permutation carrying the a-row to the 1-row.

    delta(a, b) = delta(1, reduced_index(..., beta=False)) and beta(a, b) =
    beta(1, reduced_index(..., beta=True)); needs chi(-1) = -1, i.e.
    q = 3 (mod 4).
    """
    ar = field.pow(a, spec.r)
    if field.chi(a) == 1:
        den = ar
    else:
        sign_exp = spec.r if beta else spec.r + 1
        den = field.neg(ar) if sign_exp % 2 == 1 else ar
    return field.mul(b, field.inv(den))


def naive_beta_count(field: FieldSpec, spec: BinomialSpec, a: int, b: int) -> int:
    fv = naive_values(field, spec)
    fa = [fv[field.add(x, a)] for x in field.elements()]
    total = 0
    for x in field.elements():
        for y in field.elements():
            if field.sub(fv[x], fv[y]) == b and field.sub(fa[x], fa[y]) == b:
                total += 1
    return total


def pair_key_beta_count(field: FieldSpec, spec: BinomialSpec, a: int, b: int) -> int:
    """beta(a, b) by value pairs: the points (F(y), F(y+a)), packed as
    F(y) * q + F(y+a), are counted by np.unique, and each target
    (F(x) - b, F(x+a) - b) is looked up among them.  Vectorized, unlike the
    oracles above, so it reaches fields where naive_beta_count's q^2 pairs
    are too many; it shares the value table with boom but neither the
    (D, F) keys of its counts nor beta_profile's pair histograms, and is
    the reference for beta_row, beta_ab and bijkl_counts(...).total."""
    fv = eval_table(field, spec)
    fa = fv[field.add_arrays(np.arange(field.q, dtype=np.int64), a)]
    uniq, cnt = np.unique(fv * field.q + fa, return_counts=True)
    targets = field.sub_arrays(fv, b) * field.q + field.sub_arrays(fa, b)
    idx = np.minimum(np.searchsorted(uniq, targets), len(uniq) - 1)
    return int(cnt[idx[uniq[idx] == targets]].sum())



def pair_key_bijkl_counts(field: FieldSpec, spec: BinomialSpec, b: int) -> BijklCounts:
    """bijkl_counts(field, spec, b) by value pairs: pair_key_beta_count with
    a = 1, each point (F(y), F(y+1)) packed with y's sij_table code as
    code * q^2 + F(y) * q + F(y+1) and counted by np.unique, and each target
    (F(x) - b, F(x+1) - b) looked up once per code of y.  The matches are
    tallied by the codes of x and y, and code 4 (x or y in {0, -1}) is the
    boundary.  Vectorized, so it reaches fields of several blocks, where
    naive_bijkl_counts is too slow; it shares neither the (D, F) keys nor
    the class-sorted slices of bijkl_counts."""
    q = field.q
    codes = field.sij_table.astype(np.int64)
    fv = eval_table(field, spec)
    f1 = fv[field.add_arrays(np.arange(q, dtype=np.int64), 1)]
    uniq, cnt = np.unique((codes * q + fv) * q + f1, return_counts=True)
    targets = field.sub_arrays(fv, b) * q + field.sub_arrays(f1, b)
    grid = np.zeros((5, 5), dtype=np.int64)
    for cy in range(5):
        tagged = targets + cy * q * q
        idx = np.minimum(np.searchsorted(uniq, tagged), len(uniq) - 1)
        hit = uniq[idx] == tagged
        np.add.at(grid[:, cy], codes[hit], cnt[idx[hit]])
    counts = {f"{i}{j}{k}{l}": int(grid[2 * int(i) + int(j), 2 * int(k) + int(l)]) for i in "01" for j in "01" for k in "01" for l in "01"}
    return BijklCounts(counts, int(grid.sum()) - sum(counts.values()))

# -- prime fields with bare integer arithmetic ------------------------------


def prime_chi(x: int, q: int) -> int:
    x %= q
    if x == 0:
        return 0
    return 1 if pow(x, (q - 1) // 2, q) == 1 else -1


def prime_eval(x: int, r: int, u: int, q: int) -> int:
    x %= q
    if x == 0:
        return 0
    return pow(x, r, q) * (1 + u * prime_chi(x, q)) % q


def prime_delta_row(q: int, r: int, u: int = 1) -> Counter:
    row = Counter()
    for x in range(q):
        row[(prime_eval(x + 1, r, u, q) - prime_eval(x, r, u, q)) % q] += 1
    return row


def prime_spectrum(q: int, r: int, u: int = 1) -> dict[int, int]:
    row = prime_delta_row(q, r, u)
    omega = Counter(row.get(b, 0) for b in range(q))
    return {i: c for i, c in sorted(omega.items()) if c}
