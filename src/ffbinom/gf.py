"""Arithmetic and enumeration for F_p and F_{p^n} with p odd.

Elements are canonical integers in [0, q): the coefficient vector
(c_0, ..., c_{n-1}) of an element in the polynomial basis is packed as
sum(c_i * p^i).  For q up to TABLE_LIMIT a discrete-log table over a fixed
generator is built at construction, so that powering, multiplication and the
quadratic character are table lookups; all bulk operations are vectorized
over numpy arrays of encoded elements and need those tables.

The exp table is built by doubling: exp[m:2m] = exp[:m] * g^m, about log2(q)
numpy passes.  On F_p that is a product mod p; on F_{p^n} multiplication by
the constant g^m is an F_p-linear map, applied as an n x n matrix mod p to
the base-p digit rows.  The log table is one scatter of the exp table.
Larger fields keep exact scalar arithmetic through the table-free routines.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import BadDegreeError, EvenCharacteristicError, FFBinomError, InvariantError, NonPrimeError

Elt = int

# Above this order no exp/log tables are built: scalar arithmetic still works,
# bulk helpers raise FFBinomError.
TABLE_LIMIT = 1 << 24

# Rows per numpy pass of the exp-table build: its temporaries stay
# O(_BUILD_CHUNK * n) whatever q is, and 2^16 rows measured faster than 2^18.
_BUILD_CHUNK = 1 << 16

_MAX_ORDER = 1 << 63

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """
    c0 = range(1, p) if n > 1 else range(p)
    for tail in itertools.product(c0, *[range(p)] * (n - 1)):
        f = list(tail) + [1]
        if is_irreducible(f, p):
            return tuple(f)
    raise FFBinomError(f"no irreducible of degree {n} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class SijClass(Enum):
    """Position of x in the partition of F_q by (chi(x), chi(x+1)) signs."""

    S00 = "S00"
    S01 = "S01"
    S10 = "S10"
    S11 = "S11"
    ZERO = "Zero"
    MINUS_ONE = "MinusOne"


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

    def _raw_mul(self, a: Elt, b: Elt) -> Elt:
        # table-free product, used while bootstrapping the tables
        if self.n == 1:
            return a * b % self.p
        return self.encode(_pmulmod(self.decode(a), self.decode(b), self.modulus, self.p))

    def _pow_slow(self, x: Elt, e: int) -> Elt:
        # square-and-multiply; reference semantics for pow()
        if e < 0:
            raise FFBinomError("exponent must be nonnegative")
        if x == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out, base = 1, x
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _find_generator(self) -> Elt:
        fac = prime_factors(self.q - 1)
        cofactors = [(self.q - 1) // t for t in fac]
        for cand in range(2, self.q):
            if all(self._pow_slow(cand, c) != 1 for c in cofactors):
                return cand
        raise FFBinomError("no generator found")  # unreachable

    def _build_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        g = self._find_generator()
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        m, gm = 1, g  # exp[:m] holds g^0 .. g^(m-1), and gm = g^m
        while m < q - 1:
            k = min(m, q - 1 - m)
            if n > 1:
                # x -> x * g^m is F_p-linear; row j of its matrix is g^m * X^j
                mat = np.array([self.decode(self._raw_mul(gm, p**j)) for j in range(n)], dtype=np.int64)
            for lo in range(0, k, _BUILD_CHUNK):
                hi = min(k, lo + _BUILD_CHUNK)
                if n == 1:
                    exp[m + lo : m + hi] = exp[lo:hi] * gm % p
                else:
                    digits = exp[lo:hi, None] // self._pp % p
                    exp[m + lo : m + hi] = digits @ mat % p @ self._pp
            gm = self._raw_mul(gm, gm)
            m += k
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        chi = np.zeros(q, dtype=np.int8)
        chi[exp[0::2]] = 1
        chi[exp[1::2]] = -1
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

    def decode(self, value: Elt) -> list[int]:
        """Unpack an element into its coefficient vector."""
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
            return (a + b) % self.p
        return self.encode((ca + cb) % self.p for ca, cb in zip(self.decode(a), self.decode(b)))

    def sub(self, a: Elt, b: Elt) -> Elt:
        if self.n == 1:
            return (a - b) % self.p
        return self.encode((ca - cb) % self.p for ca, cb in zip(self.decode(a), self.decode(b)))

    def neg(self, a: Elt) -> Elt:
        return self.sub(0, a)

    def mul(self, a: Elt, b: Elt) -> Elt:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])
        return self._raw_mul(a, b)

    def inv(self, a: Elt) -> Elt:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return int(self._exp[(-self._log[a]) % (self.q - 1)])
        return self._pow_slow(a, self.q - 2)

    def pow(self, x: Elt, e: int) -> Elt:
        """x^e with 0^0 = 1 and 0^e = 0; e reduced mod q-1 on nonzero x."""
        if e < 0:
            raise FFBinomError("exponent must be nonnegative")
        if x == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return int(self._exp[self._log[x] * (e % (self.q - 1)) % (self.q - 1)])
        return self._pow_slow(x, e)

    def chi(self, x: Elt) -> int:
        """Quadratic character: 0 at 0, +1 on nonzero squares, -1 otherwise."""
        if x == 0:
            return 0
        if self._chi is not None:
            return int(self._chi[x])
        t = self._pow_slow(x, (self.q - 1) // 2)
        return 1 if t == 1 else -1

    # -- S_ij partition ------------------------------------------------------

    @property
    def minus_one(self) -> Elt:
        return self.p - 1

    def sij_classify(self, x: Elt) -> SijClass:
        """Class of x under the (chi(x), chi(x+1)) sign partition."""
        if x == 0:
            return SijClass.ZERO
        if x == self.minus_one:
            return SijClass.MINUS_ONE
        i = 0 if self.chi(x) == 1 else 1
        j = 0 if self.chi(self.add(x, 1)) == 1 else 1
        return SijClass[f"S{i}{j}"]

    def sij_sizes(self) -> dict[SijClass, int]:
        """Exhaustive class counts over the whole field."""
        self._require_tables()
        cx = self._chi
        cx1 = self._chi[self.succ_table]
        return {
            SijClass.S00: int(np.count_nonzero((cx == 1) & (cx1 == 1))),
            SijClass.S01: int(np.count_nonzero((cx == 1) & (cx1 == -1))),
            SijClass.S10: int(np.count_nonzero((cx == -1) & (cx1 == 1))),
            SijClass.S11: int(np.count_nonzero((cx == -1) & (cx1 == -1))),
            SijClass.ZERO: 1,
            SijClass.MINUS_ONE: 1,
        }

    # -- vectorized helpers ---------------------------------------------------

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        vals = np.arange(self.q, dtype=np.int64)
        digs = np.empty((self.q, self.n), dtype=np.int16)
        for i in range(self.n):
            digs[:, i] = (vals // self.p**i) % self.p
        digs.setflags(write=False)
        return digs

    @functools.cached_property
    def succ_table(self) -> np.ndarray:
        """Table x -> x + 1 over all encoded elements."""
        vals = np.arange(self.q, dtype=np.int64)
        if self.n == 1:
            out = (vals + 1) % self.q
        else:
            c0 = vals % self.p
            out = vals - c0 + (c0 + 1) % self.p
        out.setflags(write=False)
        return out

    @property
    def chi_table(self) -> np.ndarray:
        """Quadratic character of every element as an int8 array."""
        self._require_tables()
        return self._chi

    def _require_tables(self) -> None:
        if self._exp is None:
            raise FFBinomError(f"no tables for q = {self.q} > {TABLE_LIMIT}")

    def add_arrays(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise field addition of encoded arrays (b may be a scalar)."""
        if self.n == 1:
            return (a + b) % self.q
        return ((self._digits[a] + self._digits[b]) % self.p) @ self._pp

    def sub_arrays(self, a, b) -> np.ndarray:
        """Elementwise field subtraction of encoded arrays."""
        if self.n == 1:
            return (a - b) % self.q
        return ((self._digits[a] - self._digits[b]) % self.p) @ self._pp

    def mul_arrays(self, a: np.ndarray, b) -> np.ndarray:
        """Elementwise field product via the discrete-log table."""
        self._require_tables()
        a, b = np.asarray(a), np.asarray(b)
        # log(0) = -1 still indexes exp; those products are zeroed after
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        out[(a == 0) | (b == 0)] = 0
        return out

    def power_table(self, e: int) -> np.ndarray:
        """Table of x^e over all x, with the pow() conventions at x = 0."""
        if e < 0:
            raise FFBinomError("exponent must be nonnegative")
        self._require_tables()
        er = e % (self.q - 1)
        out = np.empty(self.q, dtype=np.int64)
        out[0] = 1 if e == 0 else 0
        # indices are already reduced; mode="clip" lets take write into out unbuffered
        np.take(self._exp, self._log[1:] * er % (self.q - 1), out=out[1:], mode="clip")
        return out

    def outer_diff_hist(self, values: np.ndarray) -> np.ndarray:
        """Histogram of v_i - v_j over all ordered pairs of an encoded array.

        Returns a length-q count array indexed by the encoded difference, in
        O(q log q) whatever the length of `values`.  The histogram is the
        autocorrelation of the multiplicity array of `values` on the additive
        group (Z/p)^n: in C order the base-p encoding is exactly an array of
        shape (p,)*n, on which field addition is a cyclic shift per axis.
        Rounding is checked: a bin off an integer by more than 0.25, or a
        total other than len(values)**2, raises InvariantError.
        """
        m = len(values)
        if m == 0:
            return np.zeros(self.q, dtype=np.int64)
        shape = (self.p,) * self.n
        axes = tuple(range(self.n))
        counts = np.bincount(values, minlength=self.q).reshape(shape)
        spec = np.fft.rfftn(counts, axes=axes)
        power = spec.real**2 + spec.imag**2
        exact = np.fft.irfftn(power, s=shape, axes=axes).ravel()
        hist = np.rint(exact)
        if np.abs(exact - hist).max() > 0.25:
            raise InvariantError(f"pair-difference histogram off an integer by more than 0.25 on q = {self.q}")
        hist = hist.astype(np.int64)
        if int(hist.sum()) != m * m:
            raise InvariantError(f"pair-difference histogram sums to {int(hist.sum())}, not {m * m}")
        return hist


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct (and cache) the field F_{p^n} with its canonical modulus."""
    return FieldSpec(p, n)
