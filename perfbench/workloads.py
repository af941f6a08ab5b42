"""Seeded inputs, the operation each input drives, and its output check.

A workload is a list of fields to build in set-up plus one *round*: a fixed,
seeded list of operations.  The timed loop repeats whole rounds, so the mix
of operations in a run is exact and the work counts per round repeat exactly
for a given seed.  Inputs are drawn so that every seed does statistically
the same amount of work: field orders come from narrow bands and exponents
from ranges whose cost does not depend on the draw.

Only plain integers are generated here; the library sees nothing but the
resulting (field, exponent, coefficient, window) arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ffbinom import boom, diff, family, gf, predict, scan
from ffbinom.family import BinomialSpec


@dataclass(frozen=True)
class Op:
    """One public library call.

    kind "boom": args = (r, u); "verify": args = (theorem, r or None);
    "scan": args = (r_min, r_max).
    """

    kind: str
    field: tuple[int, int]
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[tuple[int, int], ...]
    ops: tuple[Op, ...]  # one round, in execution order


# -- seeded input helpers ------------------------------------------------------


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """Uniformly drawn odd prime in [lo, hi)."""
    first = lo + (1 - lo) % 2
    count = (hi - first + 1) // 2
    for _ in range(100_000):
        m = first + 2 * rng.randrange(count)
        if _is_prime(m):
            return m
    raise ValueError(f"no odd prime found in [{lo}, {hi})")


def _top_primes(lo: int, hi: int, residue: int, modulus: int, count: int) -> list[int]:
    """The `count` largest primes in [lo, hi) congruent to residue mod modulus."""
    top = [m for m in range(hi - 1, lo - 1, -1) if m % modulus == residue and _is_prime(m)][:count]
    if len(top) < count:
        raise ValueError(f"fewer than {count} primes = {residue} mod {modulus} in [{lo}, {hi})")
    return top


def _apn_exponent(rng: random.Random, p: int, n: int) -> int:
    """Exponent with gcd(r, q-1) <= 2 that is not linear on the squares.

    On the squares x^r only depends on r mod (q-1)/2; residues in the
    Frobenius orbit of 1 make x^r additive there, which would add a second
    class of about q/4 members and double the cost of the operation.
    """
    q = p**n
    half = (q - 1) // 2
    linear = {p**k % half for k in range(n)}
    while True:
        r = rng.randrange(3, q - 1)
        if math.gcd(r, q - 1) <= 2 and r % half not in linear:
            return r


def _small_exponent(rng: random.Random, p: int) -> int:
    """Exponent in [4, 15] that is not a power of p.

    (x+1)^r - x^r is then a nonconstant polynomial of degree below r on each
    sign class, so every shift-difference class has at most 4r - 2 <= 58
    members and stays on the batched small-class path.  (r = 3 is left out:
    its quadratic differences give about 10 % fewer pairs than the rest.)
    """
    while True:
        r = rng.randrange(4, 16)
        if p ** round(math.log(r, p)) != r:
            return r


def _shuffled(rng: random.Random, ops: list[Op]) -> tuple[Op, ...]:
    rng.shuffle(ops)
    return tuple(ops)


def _fields_of(ops: list[Op]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({op.field for op in ops}, key=lambda pn: pn[0] ** pn[1]))


# -- workloads -----------------------------------------------------------------


def _boom_apn(rng: random.Random, scale: str) -> list[Op]:
    # (p, n, ops with u = 1, ops with u = -1).  Twelve operations on q ~ 6.7e3
    # and 32 on q ~ 2.2e3: the median latency falls among the small fields and
    # the tail (the 11th slowest) among the large ones.
    if scale == "full":
        plan = [(3, 8, 3, 3), (19, 3, 3, 3), (3, 7, 8, 8), (13, 3, 8, 8)]
    else:
        plan = [(3, 3, 2, 2), (7, 2, 1, 1)]
    ops = []
    for p, n, n_plus, n_minus in plan:
        for u, count in ((1, n_plus), (p - 1, n_minus)):
            ops += [Op("boom", (p, n), (_apn_exponent(rng, p, n), u)) for _ in range(count)]
    if scale == "tiny":
        # the square binomial on F_{3^3} is where predict_bs_f2 applies
        ops.append(Op("boom", (3, 3), (2, 1)))
    return ops


def _boom_generic(rng: random.Random, scale: str) -> list[Op]:
    # (band upper end, ops); each band's prime is drawn from the top 1 %.  With
    # four ops on each extension field that is 44 ops, and both the median
    # latency and the tail (the 11th slowest) fall among the 24 ops of the
    # 10^5 band, whose cost does not depend on r; the cost of the extension
    # field ops does, by up to 2x.
    bands = [(10_000, 4), (100_000, 24), (300_000, 6), (1_000_000, 2)] if scale == "full" else [(200, 2), (1000, 2)]
    extension = [(7, 5), (23, 3)] if scale == "full" else [(3, 3), (5, 2)]
    per_extension = 4 if scale == "full" else 2
    ops = []
    for hi, count in bands:
        p = _prime_in(rng, hi - hi // 100, hi)
        for _ in range(count):
            ops.append(Op("boom", (p, 1), (_small_exponent(rng, p), rng.randrange(2, p - 1))))
    for p, n in extension:
        for _ in range(per_extension):
            ops.append(Op("boom", (p, n), (_small_exponent(rng, p), 0)))
    return ops


def _prime_field_verify_ops(p: int) -> list[Op]:
    # the theorems that apply to F_p with p = 3 (mod 4); the du exponents are
    # the field's special exponents: p + 1, and for p = 11 (mod 12) also the
    # cube and the inverse cube
    ops = [Op("verify", (p, 1), ("du", p + 1))]
    if p % 12 == 11:
        ops += [
            Op("verify", (p, 1), ("ds-f3", None)),
            Op("verify", (p, 1), ("ds-f3inv", None)),
            Op("verify", (p, 1), ("du", 3)),
            Op("verify", (p, 1), ("du", (2 * p - 1) // 3)),
        ]
    return ops


def _verify_sweep(rng: random.Random, scale: str) -> list[Op]:
    # two primes = 11 and two = 7 (mod 12) in each of `bands` geometric bands
    # over [lo, hi), drawn from the band's four largest of that residue: the
    # sample's size profile, and with it the median latency, is nearly the
    # same for every seed.
    lo, hi, bands = (1000, 32_000, 24) if scale == "full" else (200, 800, 3)
    ratio = (hi / lo) ** (1 / bands)
    ops = []
    for i in range(bands):
        a, b = round(lo * ratio**i), round(lo * ratio ** (i + 1))
        for residue in (11, 7):
            for p in sorted(rng.sample(_top_primes(a, b, residue, 12, 4), 2)):
                ops += _prime_field_verify_ops(p)
    # extension fields with q = 11 (mod 12) run every theorem but cm-equiv
    for p in (11, 23) if scale == "full" else (11,):
        q = p**3
        ops += [Op("verify", (p, 3), (t, None)) for t in ("ds-f3", "ds-f3inv")]
        ops += [Op("verify", (p, 3), ("du", r)) for r in (p + 1, p**2 + 1, p**3 + 1, 3, (2 * q - 1) // 3)]
    for n in (5, 7) if scale == "full" else (3, 5):
        ops.append(Op("verify", (3, n), ("cm-equiv", None)))
    return ops


def _scan_filter(rng: random.Random, scale: str) -> list[Op]:
    # Exponent ranges and their tiling are fixed per field, so every seed
    # scans the same windows (and hits) and only their order changes: a
    # seeded tiling moved the median latency between seeds by up to 15 %,
    # because a window's cost depends on which exponents it holds.  By a full
    # scan of each field, F_20011: [2, 502) holds one hit, r = 2, in the
    # first window; F_{7^5}: [700, 850) holds no member of any hit's
    # Frobenius orbit.  With 10-wide windows a round has 65 operations: the
    # median latency falls among the F_20011 windows and the tail (the 11th
    # slowest) among the F_{7^5} ones.
    if scale == "full":
        plan = [((20011, 1), 2, 502, 10), ((7, 5), 700, 850, 10)]
    else:
        plan = [((107, 1), 2, 100, 10), ((7, 3), 2, 100, 10)]
    ops = []
    for field, lo, hi, width in plan:
        ops += [Op("scan", field, (a, min(a + width, hi) - 1)) for a in range(lo, hi, width)]
    return ops


_BUILDERS = {
    "boom-apn": _boom_apn,
    "boom-generic": _boom_generic,
    "verify-sweep": _verify_sweep,
    "scan-filter": _scan_filter,
}


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's fields and one seeded round of operations."""
    rng = random.Random(f"{name}/{seed}/{scale}")
    ops = _BUILDERS[name](rng, scale)
    return Workload(name, _fields_of(ops), _shuffled(rng, ops))


# -- operations and checks -----------------------------------------------------


def call(op: Op, field: gf.FieldSpec):
    """Run one operation through the public module attributes the CLI uses."""
    if op.kind == "boom":
        return boom.boom_spectrum(field, BinomialSpec(*op.args))
    if op.kind == "verify":
        return predict.verify(field, *op.args)
    return scan.scan_exponents(field, *op.args, jobs=1)


def _bs_f2_applies(field: gf.FieldSpec, r: int, u: int) -> bool:
    return field.p == 3 and field.n % 2 == 1 and field.n >= 3 and u == 1 and r % (field.q - 1) == 2


def boom_reference(field: gf.FieldSpec, op: Op) -> tuple[int, dict | None]:
    """Independent expectations for a boomerang spectrum.

    Sum_i i*nu_i counts the pairs (x, y) with equal shift-differences minus
    those with b = 0, i.e. sum_c delta(1, c)^2 - beta(1, 0); both terms come
    from kernels that do not use beta_profile's histograms.  The closed form
    predict_bs_f2 is added where it applies.
    """
    r, u = op.args
    spec = BinomialSpec(r, u)
    row = diff.delta_row(field, spec).astype(np.int64)
    weighted = int((row * row).sum()) - boom.beta_row(field, spec, 0)
    predicted = predict.predict_bs_f2(field).nu if _bs_f2_applies(field, r, u) else None
    return weighted, predicted


def check_boom(field: gf.FieldSpec, out, reference: tuple[int, dict | None]) -> bool:
    weighted, predicted = reference
    nu = out.nu
    return (
        sum(nu.values()) == field.q - 1
        and sum(i * c for i, c in nu.items()) == weighted
        and out.uniformity == max(nu, default=0)
        and (predicted is None or nu == predicted)
    )


def check(op: Op, field: gf.FieldSpec, out, references: dict) -> bool:
    """Output gate for one operation; boomerang references are cached per op."""
    if op.kind == "boom":
        if op not in references:
            references[op] = boom_reference(field, op)
        return check_boom(field, out, references[op])
    if op.kind == "verify":
        return out.match is True
    return all(res.delta_max <= 2 and res.beta_max <= 2 for res in out if res.d00_holds)


def class_sizes(field: gf.FieldSpec, spec: BinomialSpec) -> np.ndarray:
    """Sizes of the shift-difference classes that beta_profile groups."""
    fv = family.eval_table(field, spec)
    d = field.sub_arrays(fv[field.succ_table], fv)
    return np.unique(d, return_counts=True)[1]
