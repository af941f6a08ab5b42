"""Exhaustive exponent scanner for the S00 collision condition.

Exponents with gcd(r, q-1) dividing 2 are filtered through the collision
predicate; hits are re-measured with the full difference-row and boomerang
oracles, so a reported hit that violated the <= 2 conclusions would expose a
bug rather than a discovery.  Results deduplicate by the Frobenius orbit
e -> p*e mod (q-1); linear-equivalence partners are recorded as metadata,
never merged.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

from . import diff, family
from .boom import boom_spectrum
from .errors import BadRangeError, FFBinomError, WrongResidueError
from .family import BinomialSpec
from .gf import FieldSpec, make_field


@dataclass(slots=True)
class ScanResult:
    """One Frobenius orbit of exponents on one field.

    Slotted, so a caller that keeps many results holds no per-instance
    __dict__.
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...] | None
    r: int  # canonical orbit representative: min of {r * p^i mod (q-1)}
    gcd_order: int
    d00_holds: bool
    in_table1: str | None
    cm_partner: int | None
    delta10: int | None  # measured only when d00_holds
    # maxima of the a = 1 row over b != 0; scans run on q = 3 (mod 4) only,
    # where these are the uniformities over every a != 0
    delta_max: int | None  # max delta(1, b)
    beta_max: int | None  # max beta(1, b)

    def to_json_line(self) -> str:
        d = asdict(self)
        d["modulus"] = list(self.modulus) if self.modulus else None
        return json.dumps(d, sort_keys=True)


def orbit(field: FieldSpec, r: int) -> list[int]:
    """The Frobenius orbit of r mod q-1, as residues in [1, q-1]."""
    m = field.q - 1
    out = []
    e = r % m or m
    for _ in range(field.n):
        if e in out:
            break
        out.append(e)
        e = e * field.p % m or m
    return out


def _table1_lookup(field: FieldSpec) -> dict[int, family.ExponentFamily]:
    # Coulter-Matthews entries win residue collisions so the equivalence
    # partner metadata is preserved
    fams = sorted(
        family.table1_exponents(field),
        key=lambda f: f.name != "coulter_matthews",
    )
    out = {}
    for fam in fams:
        out.setdefault(family.reduce_exponent(field, fam.r), fam)
    return out


def _scan_chunk(p: int, n: int, lo: int, hi: int, r_min: int, r_max: int) -> list[ScanResult]:
    fld = make_field(p, n)
    q = fld.q
    table1 = _table1_lookup(fld)
    results = []
    for r in range(lo, hi + 1):
        if math.gcd(r, q - 1) not in (1, 2):
            continue
        members = orbit(fld, r)
        in_range = [e for e in members if r_min <= e <= r_max]
        if r != min(in_range):
            continue  # another representative of this orbit owns it
        rid = min(members)
        fam = next((table1[e] for e in members if e in table1), None)
        cm_partner = None
        if fam is not None and fam.name == "coulter_matthews":
            cm_partner = family.cm_equiv_partner(n, fam.k)
        cond = diff.d00_condition(fld, rid)
        delta10 = delta_max = beta_max = None
        if cond.holds:
            spec = BinomialSpec(rid, 1)
            report = diff.row_report(fld, spec)[1]
            delta10, delta_max = report.delta10, report.delta_max
            beta_max = boom_spectrum(fld, spec).uniformity
        results.append(
            ScanResult(
                p=p, n=n, q=q, modulus=fld.modulus,
                r=rid, gcd_order=math.gcd(rid, q - 1),
                d00_holds=cond.holds,
                in_table1=fam.name if fam else None,
                cm_partner=cm_partner,
                delta10=delta10, delta_max=delta_max, beta_max=beta_max,
            )
        )
    return results


def scan_exponents(field: FieldSpec, r_min: int, r_max: int, jobs: int = 1) -> list[ScanResult]:
    """Scan [r_min, r_max] for exponents passing the S00 collision filter.

    Output is sorted by (q, r) and identical for any worker count.  The
    field must have q = 3 (mod 4), the theorem's setting, where the a = 1
    row holds every shift's maximum; on q = 1 (mod 4) another row can be
    higher (on F_13 with r = 2, beta(1, b) stays 0 while beta reaches 4), so
    WrongResidueError is raised there, and FFBinomError for jobs < 1.
    """
    if field.q % 4 != 3:
        raise WrongResidueError(f"scan needs q = 3 (mod 4), got q = {field.q}")
    if not 1 <= r_min <= r_max < field.q - 1:
        raise BadRangeError(f"need 1 <= r_min <= r_max < q-1, got [{r_min}, {r_max}]")
    if jobs < 1:
        raise FFBinomError(f"need jobs >= 1, got {jobs}")
    p, n = field.p, field.n
    # a process pool forks all its workers at the first submit
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        results = _scan_chunk(p, n, r_min, r_max, r_min, r_max)
    else:
        span = r_max - r_min + 1
        step = max(1, -(-span // (jobs * 4)))
        chunks = [
            (p, n, lo, min(lo + step - 1, r_max), r_min, r_max)
            for lo in range(r_min, r_max + 1, step)
        ]
        # imported here: concurrent.futures and multiprocessing add about
        # 2 MB to every process that imports ffbinom, and only parallel
        # scans need them
        from concurrent.futures import ProcessPoolExecutor

        results = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            for part in pool.map(_scan_chunk, *zip(*chunks)):
                results.extend(part)
    results.sort(key=lambda s: (s.q, s.r))
    return results


def default_jobs() -> int:
    """The worker count in $FFBINOM_JOBS, 1 when it is unset; FFBinomError
    for a value that is not a positive integer."""
    value = os.environ.get("FFBINOM_JOBS", "1")
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise FFBinomError(f"FFBINOM_JOBS must be a positive integer, got {value!r}")
    return jobs


def write_jsonl(results: list[ScanResult], path: str) -> None:
    """Append results to a JSON-lines file, one ScanResult per line."""
    with open(path, "a", encoding="utf-8") as fh:
        for res in results:
            fh.write(res.to_json_line() + "\n")
