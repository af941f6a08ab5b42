import concurrent.futures
import json
import math
import os

import numpy as np
import pytest

from ffbinom.boom import beta_ab, beta_row, boom_spectrum
from ffbinom.diff import diff_spectrum
from ffbinom.errors import BadRangeError, FFBinomError, WrongResidueError
from ffbinom.family import BinomialSpec, table1_exponents
from ffbinom.gf import make_field
from ffbinom.scan import orbit, scan_exponents, write_jsonl


def test_scan_workers_are_clamped_to_cpus_and_chunks(monkeypatch):
    # the fake pool records its size and maps serially, so no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    f = make_field(3, 5)
    assert scan_exponents(f, 2, 240, jobs=5000) == scan_exponents(f, 2, 240)
    assert scan_exponents(f, 7, 7, jobs=5000) == scan_exponents(f, 7, 7)
    assert sizes == [3, 1]


def test_orbit_f27():
    f = make_field(3, 3)
    assert sorted(orbit(f, 2)) == [2, 6, 18]
    # the representative is the orbit's least member
    assert [min(orbit(f, r)) for r in (2, 6, 18, 5, 19)] == [2, 2, 2, 5, 5]  # 5: orbit {5, 15, 19}


def test_orbit_prime_field_is_singleton():
    f = make_field(11, 1)
    for r in range(1, 10):
        assert orbit(f, r) == [r]


@pytest.mark.parametrize("p,n", [(3, 5), (7, 3), (11, 3)])
def test_spectra_constant_on_frobenius_orbits(p, n):
    # for u in the prime field, F_{pr}(x) = F_r(x)^p: the Frobenius map, an
    # additive bijection, after F_r.  So every member of an orbit has the
    # same delta and beta spectra, and scan reports one representative
    f = make_field(p, n)
    for r in np.random.default_rng(f.q).choice(np.arange(1, f.q - 1), 6, replace=False).tolist():
        members = orbit(f, r)
        for u in (1, p - 1, 2):
            spectra = [(diff_spectrum(f, BinomialSpec(s, u)), boom_spectrum(f, BinomialSpec(s, u))) for s in members]
            assert spectra == [spectra[0]] * len(members), (r, u, members)


def test_scan_f27_window():
    f = make_field(3, 3)
    results = {res.r: res for res in scan_exponents(f, 2, 25)}
    r2 = results[2]
    assert r2.d00_holds
    assert r2.beta_max == 1
    assert r2.delta10 == 7
    assert r2.delta_max == 2
    assert r2.in_table1 == "coulter_matthews"
    assert r2.cm_partner == 5
    r5 = results[5]
    assert r5.d00_holds and r5.in_table1 == "coulter_matthews" and r5.cm_partner == 2
    r14 = results[14]
    assert not r14.d00_holds
    assert r14.delta10 is None and r14.beta_max is None
    # orbit representatives only: 6 and 18 fold into 2, 15 and 19 into 5
    assert 6 not in results and 18 not in results and 15 not in results


def test_scan_gcd_filter_f11():
    f = make_field(11, 1)
    results = {res.r for res in scan_exponents(f, 2, 9)}
    assert results == {2, 3, 4, 6, 7, 8, 9}  # gcd(5, 10) = 5 excluded
    by_r = {res.r: res for res in scan_exponents(f, 2, 9)}
    assert by_r[3].in_table1 == "cube"
    assert by_r[7].in_table1 == "cube_inverse"
    assert by_r[2].in_table1 == "p_power_plus_one"  # 11 + 1 = 2 mod 10


def test_scan_canonical_rep_outside_window():
    # the orbit {2, 6, 18} intersects [5, 25] at 6 and 18; the row is still
    # reported under the global canonical representative 2
    f = make_field(3, 3)
    results = scan_exponents(f, 5, 25)
    rs = [res.r for res in results]
    assert rs.count(2) == 1


def test_scan_table1_exponents_all_pass():
    for p, n in [(11, 1), (3, 3), (23, 1)]:
        f = make_field(p, n)
        results = {res.r: res for res in scan_exponents(f, 1, f.q - 2)}
        for fam in table1_exponents(f):
            rep = min(orbit(f, fam.r))
            assert rep in results
            entry = results[rep]
            assert entry.d00_holds
            assert entry.in_table1 is not None


def test_scan_hits_satisfy_conclusions():
    for p, n in [(11, 1), (3, 3), (19, 1)]:
        f = make_field(p, n)
        for res in scan_exponents(f, 1, f.q - 2):
            assert res.gcd_order in (1, 2)
            if res.d00_holds:
                assert res.delta_max <= 2
                assert res.beta_max <= 2
                assert res.delta10 == (f.q + 1) // 4
            assert res.q == f.q and res.modulus == f.modulus


def test_scan_worker_count_invariance():
    f = make_field(3, 3)
    seq = scan_exponents(f, 1, 25, jobs=1)
    par = scan_exponents(f, 1, 25, jobs=2)
    assert seq == par
    assert not hasattr(seq[0], "__dict__")  # slotted, and still pickled across workers


def test_scan_reports_hits_beyond_known_families():
    # the collision condition also holds for exponents outside the special
    # families; the scanner reports them without classifying
    f = make_field(3, 3)
    results = {res.r: res for res in scan_exponents(f, 1, f.q - 2)}
    extra = {r for r, res in results.items() if res.d00_holds and res.in_table1 is None}
    assert {7, 8, 17} <= extra
    for r in extra:
        assert results[r].delta_max <= 2 and results[r].beta_max <= 2


def test_scan_full_range_f243():
    f = make_field(3, 5)
    results = scan_exponents(f, 1, f.q - 2, jobs=2)
    assert all(res.r == min(orbit(f, res.r)) for res in results)
    reps = [res.r for res in results]
    assert reps == sorted(set(reps))  # one row per orbit, sorted
    for res in results:
        if res.d00_holds:
            assert res.delta10 == (f.q + 1) // 4
            assert res.delta_max <= 2 and res.beta_max <= 2
        if res.in_table1 is not None:
            assert res.d00_holds


def test_scan_rejects_q_1_mod_4():
    # F_13, r = 2: the a = 1 row is all zero off b = 0, while beta(a, b)
    # reaches 4 at another shift, so the row's maximum is no uniformity
    f = make_field(13, 1)
    spec = BinomialSpec(2, 1)
    assert max(beta_row(f, spec, b) for b in range(1, f.q)) == 0
    assert max(beta_ab(f, spec, a, b) for a in range(1, f.q) for b in range(1, f.q)) == 4
    with pytest.raises(WrongResidueError):
        scan_exponents(f, 2, 2)
    with pytest.raises(WrongResidueError):
        scan_exponents(make_field(5, 2), 2, 6, jobs=2)


def test_scan_bad_ranges():
    f = make_field(11, 1)
    with pytest.raises(BadRangeError):
        scan_exponents(f, 0, 5)
    with pytest.raises(BadRangeError):
        scan_exponents(f, 3, 2)
    with pytest.raises(BadRangeError):
        scan_exponents(f, 1, 10)  # q - 1 itself is out of range


def test_default_jobs_env(monkeypatch):
    from ffbinom.scan import default_jobs

    monkeypatch.delenv("FFBINOM_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("FFBINOM_JOBS", "4")
    assert default_jobs() == 4
    for value in ("junk", "0", "-4", ""):
        monkeypatch.setenv("FFBINOM_JOBS", value)
        with pytest.raises(FFBinomError, match="FFBINOM_JOBS"):
            default_jobs()


def test_write_jsonl_appends(tmp_path):
    f = make_field(11, 1)
    results = scan_exponents(f, 2, 5)
    path = tmp_path / "scan.jsonl"
    write_jsonl(results, str(path))
    write_jsonl(results, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2 * len(results)
    first = json.loads(lines[0])
    assert first["q"] == 11 and first["modulus"] is None
    assert set(first) == {
        "p", "n", "q", "modulus", "r", "gcd_order", "d00_holds",
        "in_table1", "cm_partner", "delta10", "delta_max", "beta_max",
    }


def test_scan_result_gcd_matches(tmp_path):
    f = make_field(3, 3)
    for res in scan_exponents(f, 1, 25):
        assert res.gcd_order == math.gcd(res.r, f.q - 1)
