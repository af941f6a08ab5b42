"""Definitional brute-force oracles for the tests.

These deliberately avoid the vectorized table paths: field arithmetic goes
through the table-free scalar routines (_raw_mul / _pow_slow), and the prime
field variants below use nothing but Python integers.
"""

from collections import Counter

import numpy as np

from ffbinom.family import BinomialSpec
from ffbinom.gf import FieldSpec


def naive_chi(field: FieldSpec, x: int) -> int:
    if x == 0:
        return 0
    return 1 if field._pow_slow(x, (field.q - 1) // 2) == 1 else -1


def sequential_tables(field: FieldSpec) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Generator, exp, log and chi from q - 1 sequential _raw_mul steps.

    The reference for the doubling build in FieldSpec._build_tables.
    """
    g = field._find_generator()
    exp = np.empty(field.q - 1, dtype=np.int64)
    log = np.full(field.q, -1, dtype=np.int64)
    a = 1
    for i in range(field.q - 1):
        exp[i] = a
        log[a] = i
        a = field._raw_mul(a, g)
    chi = np.zeros(field.q, dtype=np.int8)
    chi[exp[0::2]] = 1
    chi[exp[1::2]] = -1
    return g, exp, log, chi


def naive_eval(field: FieldSpec, spec: BinomialSpec, x: int) -> int:
    if x == 0:
        return 0
    factor = field.add(1, spec.u) if naive_chi(field, x) == 1 else field.sub(1, spec.u)
    return field._raw_mul(field._pow_slow(x, spec.r), factor)


def naive_values(field: FieldSpec, spec: BinomialSpec) -> list[int]:
    return [naive_eval(field, spec, x) for x in field.elements()]


def naive_delta_row(field: FieldSpec, spec: BinomialSpec) -> Counter:
    fv = naive_values(field, spec)
    row = Counter()
    for x in field.elements():
        row[field.sub(fv[field.add(x, 1)], fv[x])] += 1
    return row


def pairwise_diff_hist(field: FieldSpec, values: np.ndarray) -> np.ndarray:
    """Histogram of v_i - v_j with every ordered pair formed explicitly.

    Digit-wise subtraction in row chunks, so memory stays bounded; the
    reference for the FFT kernel FieldSpec.outer_diff_hist.
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
        dv = field._digits[values]
        rows = max(1, 4_000_000 // (m * field.n))
        for i in range(0, m, rows):
            d = (dv[i : i + rows, None, :] - dv[None, :, :]) % field.p
            enc = d.reshape(-1, field.n) @ field._pp
            hist += np.bincount(enc, minlength=field.q)
    return hist


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
