"""Arithmetic and enumeration for F_p and F_{p^n} with p odd.

Elements are canonical integers in [0, q): the coefficient vector
(c_0, ..., c_{n-1}) of an element in the polynomial basis is packed as
sum(c_i * p^i).  For q up to TABLE_LIMIT a discrete-log table over a fixed
generator is built at construction, so that powering, multiplication and the
quadratic character are table lookups; all bulk operations are vectorized
over numpy arrays of encoded elements and need those tables.

The exp table is built by doubling: exp[m:2m] = exp[:m] * g^m, about log2(q)
numpy passes.  On F_p that is a product mod p.  On F_{p^n} multiplication by
a constant c is an F_p-linear map, the n x n matrix M_c over F_p of the
regular representation (Lidl and Niederreiter, "Finite Fields", ch. 2), and
M_{g^2m} = M_{g^m}^2; rows are mapped through two half-width digit tables
of M_{g^m}.  The generator and the modulus are found by powering such
matrices as well, so no table build does polynomial arithmetic in Python.
The log table is a scatter of the exp table, _BUILD_CHUNK entries at a
time, and chi is the parity of the log.  Multiplication, inversion,
powering and chi are lookups only: above TABLE_LIMIT a field carries p, n,
q and its modulus, and those raise FFBinomError like the bulk operations.

The q-long exp, log, successor and Zech tables are int32, since every
element and every log is below TABLE_LIMIT = 2^24; chi is int8.  Sums and
differences of two logs stay far inside int32, but a log times an exponent
can pass 2^31 once q > 46 341, so powering widens that product to int64.
Element arrays that the bulk operations return (the value arrays) stay
int64.  Where an int32 table is the index, the gather is np.take: numpy
indexes about twice as slowly with an int32 index array as with an int64
one, and np.take converts the index at less cost.  The tables are read in
this module only: power_table is the one log-domain power kernel, x^e times
one constant on squares and another on non-squares, which serves the
binomial's value table and the character sums alike.

Bulk addition and subtraction on F_{p^n} stay in the log domain too, through
Zech's logarithms Z[k] = log(1 + g^k), one q-long table (K. Huber, "Some
comments on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990); on F_p
they are integer arithmetic on the encodings.

Every bulk difference of field elements is formed here, so no other module
knows the encoding.  shift_difference gives the shift row F(x + a) - F(x)
of a value table: on F_p two slice differences of the table, since x + a
rotates the index, and on F_{p^n} a gather and a Zech subtraction.  Two
kernels histogram pair differences: run_diff_hist over the pairs inside
runs of an array (the boomerang profile's small classes) and
outer_diff_hist over all pairs of one array (its large classes).  Each
counts into one q-long int64 histogram with np.add.at.  run_diff_hist
forms only the pairs i < j and folds the histogram onto its negation, on
F_p as b -> q - b and on F_{p^n} by negating every base-p digit.

The block rule: a bulk pass over more than _BUILD_CHUNK (2^16) elements runs
in blocks of that many and writes each block straight into its one output,
so it keeps one block of scratch and no q-long quotient, mask or index
array.  The exponent pass of power_table, add_arrays, sub_arrays and
mul_arrays with a q-long operand (_blockwise), shift_difference, and the
lazy Zech and class tables follow it.  Up to _BUILD_CHUNK elements a pass
is one call: the F_p sums and the products run their block kernel once,
while power_table, shift_difference, the Zech sum and the lazy tables keep
whole-array calls that measured faster there, or, for the tables, kept the
heap's layout (see sij_table).  The pair kernels add about _PAIR_CHUNK
differences to their histogram per pass.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import BadDegreeError, EvenCharacteristicError, FFBinomError, InvariantError, NonPrimeError, ZeroShiftError

Elt = int

# Above this order no exp/log tables are built: scalar add, sub and neg still
# work, while mul, inv, pow, chi and the bulk helpers raise FFBinomError.
# Up to it every element and every log fits in the int32 tables.
TABLE_LIMIT = 1 << 24


def no_tables(q: int) -> FFBinomError:
    """The error for an operation that needs tables on a field of order q."""
    return FFBinomError(f"no tables for q = {q} > {TABLE_LIMIT}")


# Rows per numpy pass of the exp-table build and the log scatter: their
# temporaries stay O(_BUILD_CHUNK * n) whatever q is, and 2^16 rows measured
# faster than 2^18.  The bulk passes over longer arrays run in blocks of as
# many elements (_blocks), so their scratch is one block, not q-long.
_BUILD_CHUNK = 1 << 16

# Differences added per pass to the histogram of a pair-difference kernel
# (outer_diff_hist and run_diff_hist), which bounds their temporaries: on
# F_{p^n} a difference takes a few int64 words of Zech-logarithm scratch.
_PAIR_CHUNK = 1 << 20

_MAX_ORDER = 1 << 63

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _reduce(e, m: int, scratch: np.ndarray | None = None):
    """e mod m, in place for an integer array that the caller owns.

    Formed as e - (e // m) * m: numpy divides an integer array by a scalar
    about four times faster than it takes the remainder.  Floor division
    makes it exact for negative e as well, like %.  The quotient goes to
    `scratch` where one is given (an owned buffer of e's shape and dtype),
    else to one new temporary, and the result keeps e's dtype.  A scalar e
    is returned as a new scalar.
    """
    t = np.floor_divide(e, m, out=scratch)
    t *= m
    e -= t
    return e


def _blocks(n: int) -> list[tuple[int, int]]:
    """The bounds [lo, hi) of consecutive blocks of _BUILD_CHUNK entries
    that cover range(n); read at call time, so a test can shrink it."""
    return [(lo, min(n, lo + _BUILD_CHUNK)) for lo in range(0, n, _BUILD_CHUNK)]


def _blocks_into(out: np.ndarray):
    """The blocks (lo, hi) of _blocks(len(out)) for a pass that fills the
    1-d int64 array out block by block, in ascending order, each with an
    int32 scratch of hi - lo entries: the bytes of out[hi:], which later
    blocks overwrite, while there are enough of them, else a new array.
    Only the last block or two allocate one.  On F_100003 (two blocks) one
    up-front int32 block instead measured 1.41 q-long arrays of traced peak
    for power_table and 2.33 for delta_row, against 1.26 and 2.26."""
    for lo, hi in _blocks(len(out)):
        tail = out[hi:].view(np.int32)
        yield lo, hi, tail[: hi - lo] if len(tail) >= hi - lo else np.empty(hi - lo, dtype=np.int32)


def _add_q_where_negative(d: np.ndarray, q: int, scratch: np.ndarray) -> np.ndarray:
    """d + q where d < 0, in place, for an int64 array d in (-q, q): the sign
    shifted down to -1 or 0, in an int32 scratch of d's shape, masks q."""
    np.right_shift(d, 63, out=scratch, casting="unsafe")
    scratch &= q
    d += scratch
    return d


def _blockwise(a, b, block, whole=None) -> np.ndarray:
    """A bulk operation of two operands.  When each is a scalar or 1-d of
    one length above _BUILD_CHUNK, block(a, b, out) runs on their blocks
    and writes into its block of one new int64 output, so its temporaries
    stay one block long.  Anything else, operands within one block or that
    broadcast otherwise (an outer difference, say), is one call:
    whole(a, b) where it is given, else block(a, b, out) into an output of
    their broadcast shape.  Two scalars give a scalar."""
    sa, sb = np.shape(a), np.shape(b)
    if len(sa) <= 1 and len(sb) <= 1 and (not sa or not sb or sa == sb):
        shape = sa or sb
        if shape and shape[0] > _BUILD_CHUNK:
            out = np.empty(shape, dtype=np.int64)
            for lo, hi in _blocks(shape[0]):
                block(a[lo:hi] if sa else a, b[lo:hi] if sb else b, out[lo:hi])
            return out
    else:
        shape = np.broadcast_shapes(sa, sb)
    if whole is not None:
        return whole(a, b)
    out = np.empty(shape, dtype=np.int64)
    block(a, b, out)
    return out if shape else out[()]


def _pooled(pieces, size: int):
    # concatenations of consecutive pieces, each of about `size` entries;
    # the pieces are dropped before their concatenation is yielded
    pending, pooled = [], 0
    for piece in pieces:
        pending.append(piece)
        pooled += len(piece)
        if pooled >= size:
            joined = np.concatenate(pending)
            pending, pooled = [], 0
            yield joined
    if pending:
        joined = np.concatenate(pending)
        del pending
        yield joined


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for m < 3.3e24."""
    if m < 2:
        return False
    for sp in _MR_WITNESSES:
        if m % sp == 0:
            return m == sp
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, n) with q = p^n and p prime, or None."""
    if q < 2:
        return None
    fac = prime_factors(q)
    if len(fac) != 1:
        return None
    p = fac[0]
    n = 0
    while q > 1:
        q //= p
        n += 1
    return p, n


# ---------------------------------------------------------------------------
# polynomials over F_p as trimmed low-to-high coefficient lists


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _ptrim(a)


def _pmulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), m, p)


def _ppow_x(e: int, m: Sequence[int], p: int) -> list[int]:
    """x^e mod m by square-and-multiply."""
    result = [1]
    base = _pmod([0, 1], m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        bm = [c * inv_lead % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [c * inv_lead % p for c in a]
    return a


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _ptrim(out)


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Tests x^(p^n) == x mod f together with gcd(x^(p^(n/t)) - x, f) = 1 for
    every prime t dividing n, which excludes roots in every proper subfield.
    """
    f = list(coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    if _ppow_x(p**n, f, p) != x:
        return False
    for t in prime_factors(n):
        h = _psub(_ppow_x(p ** (n // t), f, p), x, p)
        if len(_pgcd(h, f, p)) != 1:
            return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficients are compared low-degree-first, so the result is
    deterministic across runs and implementations.  For n > 1 the search
    starts at constant term 1: x divides every candidate with c_0 = 0.

    Up to TABLE_LIMIT candidates go in batches of doubling size.  One
    product with a Vandermonde matrix drops those with a root in F_p, which
    for n <= 3 leaves exactly the irreducibles; above degree 3 the rest pass
    Rabin's test, with x^e mod f read off row 0 of the e-th power of the
    companion matrix of f.  Larger fields test one candidate at a time with
    is_irreducible, whose integers cannot overflow.
    """
    if n == 1:
        return (0, 1)
    if p**n > TABLE_LIMIT:
        for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
            if is_irreducible([*tail, 1], p):
                return (*tail, 1)
        raise FFBinomError(f"no irreducible of degree {n} over F_{p}")  # unreachable
    vand = np.empty((n + 1, p), dtype=np.int64)  # vand[j, a] = a^j mod p
    vand[0] = 1
    for j in range(1, n + 1):
        vand[j] = vand[j - 1] * np.arange(p) % p
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)  # c_0 is the leading digit of the order
    exps = [p**n] + [p ** (n // t) for t in prime_factors(n)]
    x_row = np.eye(n, dtype=np.int64)[1]  # the digits of x
    total = (p - 1) * p ** (n - 1)
    start, size = 0, 16
    while start < total:
        cands = np.arange(start, min(total, start + size), dtype=np.int64)[:, None] // place % p
        cands[:, 0] += 1
        cands = cands[((cands @ vand[:n] + vand[n]) % p != 0).all(axis=1)]
        if n <= 3 and len(cands):
            return (*cands[0].tolist(), 1)
        if len(cands):
            companion = np.zeros((len(cands), n, n), dtype=np.int64)  # row j: x^(j+1) mod f
            companion[:, np.arange(n - 1), np.arange(1, n)] = 1
            companion[:, n - 1] = -cands % p
            powers = _matrix_powers(companion, exps, p)[:, :, 0]
            for i in np.flatnonzero((powers[0] == x_row).all(axis=1)):
                f = [*cands[i].tolist(), 1]
                if all(len(_pgcd(_ptrim(((row[i] - x_row) % p).tolist()), f, p)) == 1 for row in powers[1:]):
                    return tuple(f)
        start += size
        size *= 2
    raise FFBinomError(f"no irreducible of degree {n} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# matrices over F_p for the field build


def _matrix_powers(base: np.ndarray, exps: Sequence[int], p: int) -> np.ndarray:
    """base^e mod p for every e in exps, stacked along a new first axis.

    base is a stack of square int64 matrices with entries in [0, p); the
    exponents share one chain of squarings.  Products stay exact while
    n * (p - 1)^2 < 2^63, which holds for every field up to TABLE_LIMIT.
    """
    eye = np.eye(base.shape[-1], dtype=np.int64)
    powers = np.broadcast_to(eye, (len(exps), *base.shape)).copy()
    square = base
    for bit in range(max(exps).bit_length()):
        if bit:
            square = square @ square % p
        sel = [i for i, e in enumerate(exps) if e >> bit & 1]
        if sel:
            powers[sel] = powers[sel] @ square % p
    return powers


def _digit_table(p: int, n: int, dtype=np.int64) -> np.ndarray:
    """Base-p digits (c_0, ..., c_{n-1}) of every x in [0, p^n), one row per x.

    Viewed with shape (p,)*n in C order, digit c_i varies along axis n-1-i,
    so each column is one broadcast write, not a division.
    """
    out = np.empty((p,) * n + (n,), dtype=dtype)
    for i in range(n):
        out[..., i] = np.arange(p, dtype=dtype).reshape((p,) + (1,) * i)
    return out.reshape(p**n, n)


# ---------------------------------------------------------------------------


class FieldSpec:
    """A concrete odd-characteristic finite field with fixed encoding.

    Immutable after construction; all tables are read-only numpy arrays, so
    instances are safe to share across concurrent workers.
    """

    def __init__(self, p: int, n: int):
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        if p == 2:
            raise EvenCharacteristicError("characteristic 2 is not supported")
        if not isinstance(n, int) or n < 1:
            raise BadDegreeError(f"extension degree must be >= 1, got {n}")
        q = p**n
        if q >= _MAX_ORDER:
            raise BadDegreeError(f"field order {p}^{n} exceeds 2^63")
        self.p = p
        self.n = n
        self.q = q
        self.modulus: tuple[int, ...] | None = smallest_irreducible(p, n) if n > 1 else None
        self._pp = np.array([p**i for i in range(n)], dtype=np.int64)
        self.generator: Elt | None = None
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._chi: np.ndarray | None = None
        if q <= TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, n={self.n})"

    # -- construction ------------------------------------------------------

    def _mul_matrices(self, cs: np.ndarray) -> np.ndarray:
        # regular representation: for each c in cs the n x n matrix over F_p of
        # x -> c * x acting on digit rows, whose row j is the digits of c * X^j
        # (row j + 1 is row j shifted up one degree, minus its top digit times
        # the modulus)
        p, n = self.p, self.n
        low = np.array(self.modulus[:n], dtype=np.int64)
        mats = np.empty((len(cs), n, n), dtype=np.int64)
        mats[:, 0] = cs[:, None] // self._pp % p
        for j in range(1, n):
            prev = mats[:, j - 1]
            mats[:, j, 0] = 0
            mats[:, j, 1:] = prev[:, :-1]
            mats[:, j] = (mats[:, j] - prev[:, -1:] * low) % p
        return mats

    def _find_generator(self) -> Elt:
        """Smallest c in [2, q) with c^((q-1)/t) != 1 for every prime t | q - 1."""
        p, n, q = self.p, self.n, self.q
        cofactors = [(q - 1) // t for t in prime_factors(q - 1)]
        if n == 1:
            for cand in range(2, q):
                if all(pow(cand, c, p) != 1 for c in cofactors):
                    return cand
            raise FFBinomError("no generator found")  # unreachable
        # Elements of F_p have order dividing p - 1, a proper divisor of
        # q - 1, so the search starts at X = p, in batches of doubling size.
        eye = np.eye(n, dtype=np.int64)
        start, size = p, 2
        while start < q:
            cands = np.arange(start, min(q, start + size), dtype=np.int64)
            powers = _matrix_powers(self._mul_matrices(cands), cofactors, p)
            primitive = (powers != eye).any(axis=(2, 3)).all(axis=0)
            if primitive.any():
                return int(cands[primitive.argmax()])
            start += size
            size *= 2
        raise FFBinomError("no generator found")  # unreachable

    def _build_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        g = self._find_generator()
        exp = np.empty(q - 1, dtype=np.int32)
        exp[0] = 1
        log = np.empty(q, dtype=np.int32)
        log[0] = -1
        if n > 1:
            # x -> x * g^m is the F_p-linear map of the matrix M of g^m, the
            # square of the previous step's.  With x = lo + P * hi, P = p^h,
            # the digits of x * g^m are digits(lo) @ M[:h] + digits(hi) @ M[h:]
            # mod p: the sum of one row of each of two half-width tables,
            # int16 since a sum of two digits is below 2p <= 2^13.  The
            # encoded image is below q <= 2^24, so it is formed in int32.
            h = n // 2
            P = p**h
            lows, highs = _digit_table(p, h), _digit_table(p, n - h)
            place = self._pp.astype(np.int32)
            mat = self._mul_matrices(np.array([g]))[0]
        m, gm = 1, g  # exp[:m] holds g^0 .. g^(m-1), and gm = g^m
        while m < q - 1:
            k = min(m, q - 1 - m)
            if n > 1:
                low_rows = (lows @ mat[:h] % p).astype(np.int16)
                high_rows = (highs @ mat[h:] % p).astype(np.int16)
            for lo in range(0, k, _BUILD_CHUNK):
                hi = min(k, lo + _BUILD_CHUNK)
                if n == 1:
                    # a product of two elements passes 2^31 once p > 46 341
                    exp[m + lo : m + hi] = _reduce(np.multiply(exp[lo:hi], gm, dtype=np.int64), p)
                else:
                    x_hi, x_lo = np.divmod(exp[lo:hi], P)
                    digits = np.take(low_rows, x_lo, axis=0)
                    digits += np.take(high_rows, x_hi, axis=0)
                    digits -= (digits >= p) * np.int16(p)
                    exp[m + lo : m + hi] = digits @ place
            if n == 1:
                gm = gm * gm % p
            else:
                mat = mat @ mat % p
            m += k
        for lo in range(0, q - 1, _BUILD_CHUNK):
            # numpy scatters through an int32 index about twice as slowly
            # as through the same index widened first
            hi = min(q - 1, lo + _BUILD_CHUNK)
            log[exp[lo:hi].astype(np.intp)] = np.arange(lo, hi, dtype=np.int32)
        # chi is +1 on even logs and -1 on odd ones; log -1 at 0 is odd
        chi = np.bitwise_and(log, 1, out=np.empty(q, dtype=np.int8), casting="unsafe")
        chi *= -2
        chi += 1
        chi[0] = 0
        for arr in (exp, log, chi):
            arr.setflags(write=False)
        self.generator = g
        self._exp = exp
        self._log = log
        self._chi = chi

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs: Iterable[int]) -> Elt:
        """Pack a coefficient vector (c_0, ..., c_{n-1}) into an element."""
        v = 0
        for i, c in enumerate(coeffs):
            if i >= self.n or not 0 <= c < self.p:
                raise FFBinomError("coefficient vector out of range")
            v += c * self.p**i
        return v

    def check_element(self, x: Elt, name: str = "x") -> None:
        """The library's one element test: FFBinomError unless x is in [0, q),
        where an integer would otherwise act as its residue or index past a table."""
        if not 0 <= x < self.q:
            raise FFBinomError(f"{name} = {x} is not an element of F_{self.q}")

    def decode(self, value: Elt) -> list[int]:
        """Unpack an element into its coefficient vector."""
        self.check_element(value)
        out = []
        for _ in range(self.n):
            value, c = divmod(value, self.p)
            out.append(c)
        return out

    def from_int(self, k: int) -> Elt:
        """Embed an integer as a prime-subfield constant."""
        return k % self.p

    def elements(self) -> range:
        return range(self.q)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: Elt, b: Elt) -> Elt:
        if self.n == 1:
            self.check_element(a)
            self.check_element(b)
            return (a + b) % self.p
        # decode checks a and b
        return self.encode((ca + cb) % self.p for ca, cb in zip(self.decode(a), self.decode(b)))

    def sub(self, a: Elt, b: Elt) -> Elt:
        if self.n == 1:
            self.check_element(a)
            self.check_element(b)
            return (a - b) % self.p
        # decode checks a and b
        return self.encode((ca - cb) % self.p for ca, cb in zip(self.decode(a), self.decode(b)))

    def neg(self, a: Elt) -> Elt:
        return self.sub(0, a)

    def mul(self, a: Elt, b: Elt) -> Elt:
        self.check_element(a)
        self.check_element(b)
        if self._exp is None:
            raise no_tables(self.q)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: Elt) -> Elt:
        self.check_element(a)
        if self._exp is None:
            raise no_tables(self.q)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, x: Elt, e: int) -> Elt:
        """x^e with 0^0 = 1 and 0^e = 0; e reduced mod q-1 on nonzero x."""
        if e < 0:
            raise FFBinomError("exponent must be nonnegative")
        self.check_element(x)
        if self._exp is None:
            raise no_tables(self.q)
        if x == 0:
            return 1 if e == 0 else 0
        # a Python int product: log * e passes int32 once q > 46 341
        return int(self._exp[int(self._log[x]) * (e % (self.q - 1)) % (self.q - 1)])

    def chi(self, x: Elt) -> int:
        """Quadratic character: 0 at 0, +1 on nonzero squares, -1 otherwise."""
        self.check_element(x)
        if self._exp is None:
            raise no_tables(self.q)
        return int(self._chi[x])

    # -- S_ij partition ------------------------------------------------------

    @property
    def minus_one(self) -> Elt:
        return self.p - 1

    # -- vectorized helpers ---------------------------------------------------

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        self._require_tables()
        digs = _digit_table(self.p, self.n, np.int16)
        digs.setflags(write=False)
        return digs

    @functools.cached_property
    def succ_table(self) -> np.ndarray:
        """Read-only int32 table x -> x + 1 over all encoded elements."""
        self._require_tables()
        # x + 1, except that a constant digit p - 1 wraps to 0: x + 1 - p
        out = np.arange(1, self.q + 1, dtype=np.int32)
        out[self.p - 1 :: self.p] -= self.p
        out.setflags(write=False)
        return out

    @functools.cached_property
    def sij_table(self) -> np.ndarray:
        """Read-only int8 class code of every element, the one derivation of
        the partition: 2i + j for x in S_ij, where chi(x) = (-1)^i and
        chi(x+1) = (-1)^j, and 4 for x in {0, -1}."""
        self._require_tables()
        chi, succ = self._chi, self.succ_table
        # up to one block the whole-array calls: a cached table built in
        # blocks lands elsewhere in the heap, and on fields of q ~ 2e4 that
        # alone made the later passes fault their temporaries in again
        # (perfbench scan-filter op_p50_s 1.0 -> 1.5 ms, minor faults per
        # round 600 -> 22 000)
        if self.q <= _BUILD_CHUNK:
            codes = (2 * (chi == -1) + (np.take(chi, succ) == -1)).astype(np.int8)
        else:
            # block by block: the int64 sum of the two sign tests stays one block
            codes = np.empty(self.q, dtype=np.int8)
            for lo, hi in _blocks(self.q):
                codes[lo:hi] = 2 * (chi[lo:hi] == -1) + (np.take(chi, succ[lo:hi]) == -1)
        codes[[0, self.minus_one]] = 4
        codes.setflags(write=False)
        return codes

    @functools.cached_property
    def _zech(self) -> np.ndarray:
        # Zech's logarithms Z[k] = log(1 + g^k) for k in [0, q - 1); 1 + g^k
        # is 0 only at k = (q - 1)/2, where g^k = -1, and there Z is -1, the
        # log table's value at 0.  Block by block, since take widens each
        # int32 index array to intp
        if self.q - 1 <= _BUILD_CHUNK:  # the whole-array calls, as for sij_table
            z = np.take(self._log, np.take(self.succ_table, self._exp))
        else:
            z = np.empty(self.q - 1, dtype=np.int32)
            for lo, hi in _blocks(self.q - 1):
                np.take(self._log, np.take(self.succ_table, self._exp[lo:hi]), out=z[lo:hi])
        z.setflags(write=False)
        return z

    @property
    def chi_table(self) -> np.ndarray:
        """Quadratic character of every element as an int8 array."""
        self._require_tables()
        return self._chi

    def _require_tables(self) -> None:
        if self._exp is None:
            raise no_tables(self.q)

    def add_arrays(self, a, b) -> np.ndarray:
        """Elementwise field addition of encoded arrays (either may be a scalar).

        On F_p any int64 integers are reduced mod q, by _reduce.  On F_{p^n}
        both operands must be canonical, in [0, q), and the sum is taken by
        Zech's logarithms.  A q-long operand runs in blocks (_blockwise).
        """
        if self.n == 1:
            return _blockwise(a, b, self._add_prime)
        return _blockwise(a, b, lambda a, b, out: self._zech_block(a, b, 0, out), lambda a, b: self._zech_sum(a, b, 0))

    def sub_arrays(self, a, b) -> np.ndarray:
        """Elementwise field subtraction of encoded arrays (either may be a scalar).

        Both operands must be canonical, in [0, q): on F_p the difference is
        then in (-q, q), and adding q where it is negative reduces it without
        a division; on F_{p^n} it is a + (-1) * b by Zech's logarithms, with
        -1 = g^((q-1)/2).  Out-of-range operands give wrong results, not
        errors.  A q-long operand runs in blocks of _sub_into (_blockwise).
        """
        if self.n == 1:
            return _blockwise(a, b, self._sub_into)
        t = (self.q - 1) // 2
        return _blockwise(a, b, self._sub_into, lambda a, b: self._zech_sum(a, b, t))

    def _add_prime(self, a, b, out: np.ndarray) -> np.ndarray:
        return _reduce(np.add(a, b, out=out), self.q)

    def _sub_into(self, a, b, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """a - b into the int64 array out, which may be a itself: the block
        kernel of sub_arrays, for 1-d operands of at most one block (b may
        be a scalar), and on F_p its kernel at every size.  On F_p the sign
        fix-up takes an int32 scratch of out's shape, `scratch` where one is
        given (from _blocks_into), else a new one; on F_{p^n} it is
        _zech_block."""
        if self.n == 1:
            np.subtract(a, b, out=out)
            return _add_q_where_negative(out, self.q, np.empty(out.shape, dtype=np.int32) if scratch is None else scratch)
        return self._zech_block(a, b, (self.q - 1) // 2, out)

    def _zech_sum(self, a, b, t: int) -> np.ndarray:
        # a + g^t * b, for operands within one block or of any broadcast
        # shape.  For a != 0 and c = g^t * b != 0, a + c = c * (1 + a/c),
        # so log(a + c) = log c + Z[log a - log c], where Z = -1 marks
        # a + c = 0.  take's "wrap" mode reduces both indices mod q - 1 by a
        # compare and one add or subtract, not a division.  With a = 0 the
        # Zech term is forced to 0 = log 1, which gives c; with b = 0 the sum
        # is a.  Each zero fix-up is one mask pass and one multiply or select.
        # The logs and z are int32, and their sums stay within +-2^25; a as
        # an int64 array keeps the result int64 when a is a scalar.  On
        # F_{3^7} to F_{3^9}, _zech_block run as one block measured 8-70 %
        # slower, so this is the sum up to one block
        self._require_tables()
        a = np.asarray(a, dtype=np.int64)
        la = self._log[a]
        # b too is indexed as int64: for the boomerang profile's int32 values,
        # this conversion measured faster than np.take at every piece size
        lc = self._log[np.asarray(b, dtype=np.int64)]
        lc += t  # log c where b != 0; t - 1 where b = 0
        z = np.take(self._zech, la - lc, mode="wrap")
        z *= la >= 0
        nonzero = z >= 0
        z += lc
        out = np.take(self._exp, z, mode="wrap")
        out *= nonzero
        return np.where(lc < t, a, out)

    def _zech_block(self, a, b, t: int, out: np.ndarray) -> np.ndarray:
        """a + g^t * b into the int64 array out, for operands of at most one
        block (either may be a scalar); a may be out itself, since it is read
        first.

        The sum of _zech_sum, with no int64 temporary: out holds the Zech
        index and then the exp index, so take never widens an int32 index.
        The zero cases become index choices.  The Zech term is 0 where a or
        b is 0, and where b = 0 the log of c is taken to be log a, so that
        the sum reads exp[log a] = a.  That leaves a = b = 0 as the one
        place where this log of c is -1, and the sum is zeroed there as
        where a + c = 0 (Z = -1).  Its scratch is two int32 logs and a few
        masks, about 11 bytes an element.
        """
        self._require_tables()
        la, lc = (np.take(self._log, x) if np.ndim(x) else np.full(out.shape, self._log[x]) for x in (a, b))
        bzero = lc < 0
        lc += t
        np.copyto(lc, la, where=bzero)
        np.subtract(la, lc, out=out)
        live = la >= 0
        live &= ~bzero  # the Zech term counts where a != 0 and b != 0
        del bzero
        z = np.take(self._zech, out, mode="wrap", out=la)
        z *= live
        del live
        nonzero = z >= 0
        nonzero &= lc >= 0
        np.add(z, lc, out=out)
        values = np.take(self._exp, out, mode="wrap", out=z)
        values *= nonzero
        np.copyto(out, values)
        return out

    def mul_arrays(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise field product via the discrete-log table, in blocks
        (_blockwise)."""
        self._require_tables()
        return _blockwise(np.asarray(a), np.asarray(b), self._mul_kernel)

    def _mul_kernel(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # log(0) = -1 reduces to a valid index of exp; those products are
        # zeroed by the nonzero mask, whose product widens them to int64
        values = np.take(self._exp, _reduce(np.add(self._log[a], self._log[b]), self.q - 1))
        return np.multiply(values, (a != 0) & (b != 0), dtype=np.int64, out=out)

    def power_table(self, e: int, scale: tuple[Elt, Elt] = (1, 1)) -> np.ndarray:
        """Table of x^e * scale[0] on squares and x^e * scale[1] on
        non-squares over all x, as an encoded int64 array.  0 counts as a
        square, with the pow() conventions 0^0 = 1 and 0^e = 0.

        Computed in the log domain as one gather: for x = g^k != 0 the value
        is g^(k*e + s), where s is the log of scale[k mod 2].  A zero scale
        zeroes that half of the field after the gather, so that half takes
        the other half's s and the parity pass is skipped.  The exponents
        k*e + s pass int32 once q > 46 341, so they are int64, formed in the
        output's buffer.  Besides the output, the call takes one scratch
        array: it holds the parity terms, then the quotient of the reduction
        mod q - 1 (_reduce), then the gathered int32 values and the zeroing
        mask, and one pass widens the values into the output.  Up to
        _BUILD_CHUNK exponents it is one q-long int64 array.  Above that the
        passes run block by block (_blocks_into) with an int32 block of
        scratch, and the reduction keeps the low 32 bits of the quotient's
        product only: exps minus it is the residue plus a multiple of 2^32,
        and the residue is below 2^24.
        """
        if e < 0:
            raise FFBinomError("exponent must be nonnegative")
        for c in scale:
            self.check_element(c, "scale")
        self._require_tables()
        m = self.q - 1
        # s0, s1: the logs of the scales, a zero scale taking the other's log
        s0, s1 = (int(self._log[c or scale[1 - k]]) for k, c in enumerate(scale))
        out = np.empty(self.q, dtype=np.int64)
        out[0] = scale[0] if e == 0 else 0
        if m > _BUILD_CHUNK:
            for lo, hi, scratch in _blocks_into(out[1:]):
                logs = self._log[1 + lo : 1 + hi]
                exps = np.multiply(logs, e % m, out=out[1 + lo : 1 + hi], dtype=np.int64)
                if s0:
                    exps += s0
                if s1 != s0:
                    parity = np.bitwise_and(logs, 1, out=scratch)
                    parity *= s1 - s0
                    exps += parity
                np.floor_divide(exps, m, out=scratch, casting="unsafe")
                scratch *= m  # wraps in int32
                exps -= scratch
                exps &= 0xFFFFFFFF
                # mode="clip" lets take write into the int32 scratch unbuffered
                np.copyto(exps, np.take(self._exp, exps, out=scratch, mode="clip"))
                for k, c in enumerate(scale):
                    if c == 0:
                        # keep the half whose log parity is not k
                        keep = np.bitwise_and(logs, 1, out=scratch)
                        keep ^= k
                        exps *= keep
            return out
        # one block: the same passes with an int64 scratch.  The int32
        # scratch and its casts, run as one block, measured 8-32 % slower in
        # 9 of 10 cases (fields of 2e3 to 3e4 elements, two scale kinds)
        logs = self._log[1:]
        exps = np.multiply(logs, e % m, out=out[1:], dtype=np.int64)
        if s0:
            exps += s0
        scratch = np.empty(m, dtype=np.int64)
        if s1 != s0:
            parity = np.bitwise_and(logs, 1, out=scratch)
            parity *= s1 - s0
            exps += parity
        # _reduce leaves exps in [0, m), and mode="clip" lets take write into
        # the int32 view of scratch unbuffered
        halves = scratch.view(np.int32)
        values = np.take(self._exp, _reduce(exps, m, scratch), out=halves[:m], mode="clip")
        for k, c in enumerate(scale):
            if c == 0:
                # keep the half whose log parity is not k
                keep = np.bitwise_and(logs, 1, out=halves[m:])
                keep ^= k
                values *= keep
        np.copyto(exps, values)
        return out

    def shift_difference(self, values: np.ndarray, a: Elt = 1) -> np.ndarray:
        """The shift row F(x + a) - F(x) for every x, given values[x] = F(x):
        the one place the difference rows, the boomerang keys and the S00
        collision filter form it.  The result is a new int64 array that the
        caller owns.  The shift a must be a nonzero element: a = 0 raises
        ZeroShiftError, and a non-element FFBinomError.

        On F_p, x + a is x + a - q from x = q - a on, so the row is two slice
        differences written into one array, each in (-q, q), and then
        reduced: no rotated copy of the values.  On F_{p^n} it is a gather of
        F(x + a), through succ_table for a = 1, and a Zech-logarithm
        subtraction.  Up to _BUILD_CHUNK elements these are whole-array
        passes, the F_p reduction a division (_reduce).  Above that the row
        follows the block rule: it is formed block by block in the result.
        On F_p the two slice differences of a block are each taken and
        reduced by _sub_into in the block's int32 scratch from _blocks_into;
        on F_{p^n} a block gathers F(x + a) into its part of the result,
        which the Zech subtraction of _sub_into then overwrites.
        """
        self.check_element(a, "a")
        if a == 0:
            raise ZeroShiftError("a must be nonzero")
        q = self.q
        if q <= _BUILD_CHUNK:
            # one block: run as one block, the gather and _sub_into measured
            # 8-37 % slower than this Zech sum on F_{3^7} to F_{3^9}, and the
            # int32 sign fix-up 4-17 % slower than this division on F_20011 and
            # F_30011
            if self.n > 1:
                shifted = np.take(values, self.succ_table) if a == 1 else values[self.add_arrays(np.arange(q, dtype=np.int64), a)]
                return self.sub_arrays(shifted, values)
            d = np.empty(q, dtype=np.int64)
            np.subtract(values[a:], values[: q - a], out=d[: q - a])
            np.subtract(values[:a], values[q - a :], out=d[q - a :])
            return _reduce(d, q)
        d = np.empty(q, dtype=np.int64)
        if self.n > 1:
            for lo, hi in _blocks(q):
                block = d[lo:hi]
                index = self.succ_table[lo:hi] if a == 1 else self.add_arrays(np.arange(lo, hi, dtype=np.int64), a)
                np.take(values, index, out=block, mode="clip")  # "raise" would buffer out
                self._sub_into(block, values[lo:hi], block)
            return d
        for lo, hi, scratch in _blocks_into(d):
            mid = min(max(q - a, lo), hi)  # x + a wraps from x = q - a on
            self._sub_into(values[lo + a : mid + a], values[lo:mid], d[lo:mid], scratch[: mid - lo])
            self._sub_into(values[mid + a - q : hi + a - q], values[mid:hi], d[mid:hi], scratch[mid - lo :])
        return d

    def run_diff_hist(self, values: np.ndarray, same: np.ndarray) -> np.ndarray:
        """Histogram of v_i - v_j over all ordered pairs (i, j) inside each
        run of an encoded array, as a length-q count array.

        `values` holds runs back to back, and same[x] tells whether positions
        x and x + 1 lie in one run (so same[-1] is False).  Only the pairs
        i < j are formed (_run_pair_diffs), and one of each pair's two
        differences is binned: the other is its negation, so the histogram is
        h(b) + h(-b), plus one zero difference per value for i = j.  h is
        one int64 histogram, which each pooled piece of differences is added
        to with np.add.at.  On F_p, -b is q - b, and the fold adds the two
        halves of h to each other in place.
        """
        q, n = self.q, self.n
        half = None
        for diffs in _pooled(self._run_pair_diffs(values, same), _PAIR_CHUNK):
            if half is None:
                # made once the first piece is, so it is not live beside the
                # pair generator's q-long first positions and values
                half = np.zeros(q, dtype=np.int64)
            np.add.at(half, diffs, 1)
            del diffs  # the last piece would live on through the fold's copy
        if half is None:
            half = np.zeros(q, dtype=np.int64)
        if n == 1:
            # b in [1, h) pairs with q - b in [h, q): the two slices do not
            # overlap, so numpy adds them without copying either
            h = (q + 1) // 2
            low, high = half[1:h], half[: h - 1 : -1]
            low += high
            high[...] = low
            half[0] *= 2
            hist = half
        else:
            # -b negates every base-p digit: j -> (p - j) % p along each axis of
            # the (p,)*n reshape, which is a flip followed by a shift by one
            hist = np.roll(np.flip(half.reshape((self.p,) * n)), 1, axis=tuple(range(n))).ravel()
            hist += half
        hist[0] += len(values)
        return hist

    def _run_pair_diffs(self, values: np.ndarray, same: np.ndarray):
        # the pairs (i, i + t) inside a run, for t = 1, 2, ...: a run of size s
        # has s - t of them, and i stays while i + t + 1 is still in its run.
        # values[i] is gathered once and compressed with the positions j = i + t,
        # which move on in place.  Yielded in pieces of at most _PAIR_CHUNK
        # differences
        j = np.flatnonzero(same)
        vi = values[j]
        j += 1
        while len(j):
            for lo in range(0, len(j), _PAIR_CHUNK):
                a, b = vi[lo : lo + _PAIR_CHUNK], values[j[lo : lo + _PAIR_CHUNK]]
                if self.n == 1:
                    # |b - a| is b - a or a - b, each in [0, q)
                    b -= a
                    yield np.abs(b, out=b)
                else:
                    yield self.sub_arrays(b, a)
            # an index gather, not a boolean-mask selection: the mask is
            # irregular, and numpy selects by it several times slower
            stay = np.flatnonzero(same[j])
            j = j[stay]
            j += 1
            vi = vi[stay]

    def outer_diff_hist(self, values: np.ndarray) -> np.ndarray:
        """Histogram of v_i - v_j over all ordered pairs of an encoded array.

        Returns a length-q count array indexed by the encoded difference.
        With k distinct values of multiplicities m, a k*k <= q input is
        histogrammed over its k^2 ordered pairs of distinct values: each
        difference adds the int64 weight m_i * m_j to one histogram, with
        np.add.at.  Otherwise the histogram is the autocorrelation of the
        multiplicity array on the additive group (Z/p)^n, by FFT in
        O(q log q): in C order the base-p encoding is exactly an array of
        shape (p,)*n, on which field addition is a cyclic shift per axis, and
        a bin off an integer by more than 0.25 raises InvariantError.  On
        either path a total other than len(values)**2 raises InvariantError.
        """
        m = len(values)
        if m == 0:
            return np.zeros(self.q, dtype=np.int64)
        counts = np.bincount(values, minlength=self.q)
        distinct = np.flatnonzero(counts)
        k = len(distinct)
        if k * k <= self.q:
            mult = counts[distinct]
            del counts  # q-long, like the histogram
            hist = np.zeros(self.q, dtype=np.int64)
            rows = max(1, _PAIR_CHUNK // k)
            for lo in range(0, k, rows):
                diffs = self.sub_arrays(distinct[lo : lo + rows, None], distinct)
                np.add.at(hist, diffs.ravel(), (mult[lo : lo + rows, None] * mult).ravel())
        else:
            shape = (self.p,) * self.n
            axes = tuple(range(self.n))
            spec = np.fft.rfftn(counts.reshape(shape), axes=axes)
            power = spec.real**2 + spec.imag**2
            exact = np.fft.irfftn(power, s=shape, axes=axes).ravel()
            hist = np.rint(exact)
            if np.abs(exact - hist).max() > 0.25:
                raise InvariantError(f"pair-difference histogram off an integer by more than 0.25 on q = {self.q}")
            hist = hist.astype(np.int64)
        if int(hist.sum()) != m * m:
            raise InvariantError(f"pair-difference histogram sums to {int(hist.sum())}, not {m * m}")
        return hist


# A few fields, not every one: a field holds its tables, and a sweep over
# fields builds each of them once, so an unbounded cache grows with the
# sweep (1.8 GB by q = 95 000 over the du fields).  Four hold the two fields
# a caller alternates between, with room to spare.
@functools.lru_cache(maxsize=4)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct (and cache) the field F_{p^n} with its canonical modulus;
    the cache keeps the four most recently used fields."""
    return FieldSpec(p, n)
