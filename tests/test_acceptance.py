"""Acceptance suite: every criterion runs at its stated (exact) tolerance and
prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import functools

import numpy as np

from ffbinom import cli
from ffbinom.boom import bijkl_counts, boom_spectrum
from ffbinom.charsum import gamma, lambda_sum
from ffbinom.diff import delta_row, diff_spectrum, dij_counts
from ffbinom.family import BinomialSpec, eval_table, table1_exponents
from ffbinom.gf import is_prime, make_field
from ffbinom.predict import predict_bs_f2, predict_ds_f3, predict_ds_f3inv

from naive_oracles import quad_chi_sum

TABLE_DS_F3 = {
    11: (2, {0: 2, 1: 8, 3: 1}),
    23: (-3, {0: 9, 1: 9, 2: 4, 6: 1}),
    47: (-5, {0: 19, 1: 19, 2: 8, 12: 1}),
    59: (2, {0: 20, 1: 32, 2: 6, 15: 1}),
    71: (5, {0: 23, 1: 41, 2: 6, 18: 1}),
    83: (-4, {0: 32, 1: 38, 2: 12, 21: 1}),
    107: (-2, {0: 40, 1: 52, 2: 14, 27: 1}),
    131: (-4, {0: 50, 1: 62, 2: 18, 33: 1}),
    167: (13, {0: 55, 1: 97, 2: 14, 42: 1}),
    179: (8, {0: 62, 1: 98, 2: 18, 45: 1}),
    191: (3, {0: 69, 1: 99, 2: 22, 48: 1}),
    227: (0, {0: 84, 1: 114, 2: 28, 57: 1}),
}

TABLE_BS_F2 = {
    3: (-10, {0: 14, 1: 12}),
    5: (2, {0: 182, 1: 60}),
    7: (86, {0: 1682, 1: 504}),
    9: (-190, {0: 14666, 1: 5016}),
}


def _report(num: int, description: str, ok: bool) -> None:
    print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def _primes(lo: int, hi: int, step_residue: tuple[int, int]):
    start, mod = step_residue
    first = lo + (start - lo) % mod
    return [q for q in range(first, hi + 1, mod) if is_prime(q)]


def test_criterion_1_table3_reproduction():
    ok = True
    for q, (g_ref, omega_ref) in TABLE_DS_F3.items():
        f = make_field(q, 1)
        if gamma(f).value != g_ref:
            ok = False
        if diff_spectrum(f, BinomialSpec(3, 1)).omega != omega_ref:
            ok = False
    _report(1, "Gamma and brute-force cube-binomial spectra match all 12 table rows", ok)


def test_criterion_2_table4_reproduction():
    ok = True
    for n, (lam_ref, nu_ref) in TABLE_BS_F2.items():
        f = make_field(3, n)
        if lambda_sum(f).value != lam_ref:
            ok = False
        if boom_spectrum(f, BinomialSpec(2, 1)).nu != nu_ref:
            ok = False
    _report(2, "Lambda and brute-force square-binomial boomerang spectra match for n in {3,5,7,9}", ok)


@functools.lru_cache(maxsize=1)
def _theorem_sweep():
    # shared field/exponent sweep for criteria 3 and 6
    fields = [make_field(3, n) for n in (1, 3, 5, 7)]
    fields += [make_field(q, 1) for q in _primes(7, 5000, (3, 4))]
    delta_ok = beta_ok = True
    checked = 0
    for f in fields:
        for fam in table1_exponents(f):
            spec = BinomialSpec(fam.r, 1)
            row = delta_row(f, spec)
            if row[0] != (f.q + 1) // 4 or int(row[1:].max(initial=0)) > 2:
                delta_ok = False
            if boom_spectrum(f, spec).uniformity > 2:
                beta_ok = False
            checked += 1
    return delta_ok, beta_ok, checked, len(fields)


def test_criterion_3_locally_apn_theorem():
    delta_ok, _, checked, nfields = _theorem_sweep()
    _report(
        3,
        f"delta(1,0) = (q+1)/4 and delta(1,b) <= 2 off zero for {checked} "
        f"(field, exponent) pairs over {nfields} fields",
        delta_ok,
    )


def test_criterion_4_inverse_cube_spectrum_closed_form():
    ok = True
    fields = 0
    for q in _primes(12, 10_000, (11, 12)):
        f = make_field(q, 1)
        fields += 1
        if predict_ds_f3inv(f).omega != diff_spectrum(f, BinomialSpec((2 * q - 1) // 3, 1)).omega:
            ok = False
    _report(4, f"inverse-cube closed form equals brute spectrum on {fields} prime fields <= 10^4", ok)


def test_criterion_5_boomerang_spectrum_and_transfer():
    ok = True
    for n in (3, 5, 7):
        f = make_field(3, n)
        oracle = boom_spectrum(f, BinomialSpec(2, 1))
        if oracle.uniformity != 1 or predict_bs_f2(f).nu != oracle.nu:
            ok = False
    for n in (3, 5):
        f = make_field(3, n)
        partner = BinomialSpec((3 ** (n - 1) + 1) // 2, 1)
        if boom_spectrum(f, partner).nu != boom_spectrum(f, BinomialSpec(2, 1)).nu:
            ok = False
    _report(5, "beta = 1 with predicted spectrum for n in {3,5,7}; equivalence partner matches for n in {3,5}", ok)


def test_criterion_6_boomerang_uniformity_bound():
    _, beta_ok, checked, nfields = _theorem_sweep()
    _report(6, f"boomerang uniformity <= 2 for {checked} (field, exponent) pairs", beta_ok)


def _check_lemma22_reductions(f) -> bool:
    # brute rows/profiles for every shift equal the a = 1 data under the
    # exponent-dependent index permutations
    from ffbinom.boom import beta_profile

    xs = np.arange(f.q, dtype=np.int64)
    for r in (2, 3):
        spec = BinomialSpec(r, 1)
        fv = eval_table(f, spec)
        row1 = delta_row(f, spec)
        bprof1 = beta_profile(f, spec)
        for a in range(1, f.q):
            fa = fv[f.add_arrays(xs, a)]
            row_a = np.bincount(f.sub_arrays(fa, fv), minlength=f.q)
            ar = f.pow(a, r)
            d_den = ar if (f.chi(a) == 1 or r % 2 == 1) else f.neg(ar)
            if not (row_a == row1[f.mul_arrays(xs, f.inv(d_den))]).all():
                return False
            b_den = ar if (f.chi(a) == 1 or r % 2 == 0) else f.neg(ar)
            if not (beta_profile(f, spec, a) == bprof1[f.mul_arrays(xs, f.inv(b_den))]).all():
                return False
    return True


def _fifty_field_sij_check() -> bool:
    specs = [(p, 1) for p in _primes(3, 229, (3, 2)) if p > 2]
    specs += [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (7, 2), (11, 2), (13, 2)]
    specs = sorted(specs, key=lambda pn: pn[0] ** pn[1])[:50]
    assert len(specs) == 50
    for p, n in specs:
        f = make_field(p, n)
        s00, s01, s10, s11, boundary = np.bincount(f.sij_table, minlength=5).tolist()
        q = f.q
        if q % 4 == 3:
            ok = s00 == s10 == s11 == (q - 3) // 4 and s01 == (q + 1) // 4
        else:
            ok = s00 == (q - 5) // 4 and s01 == s10 == s11 == (q - 1) // 4
        if not ok or boundary != 2:
            return False
    return True


def _hundred_quadratics_check() -> bool:
    for p, n in [(11, 1), (13, 1), (3, 3), (11, 2), (3, 5)]:
        f = make_field(p, n)
        for i in range(100):
            a2 = (5 * i + 1) % f.q or 1
            a1 = (7 * i + 3) % f.q
            a0 = (11 * i + 5) % f.q
            value = quad_chi_sum(f, a2, a1, a0)
            disc = f.sub(f.mul(a1, a1), f.mul(f.from_int(4), f.mul(a0, a2)))
            expected = (f.q - 1) * f.chi(a2) if disc == 0 else -f.chi(a2)
            if value != expected:
                return False
    return True


def _count_bound_lemmas_check() -> bool:
    for p, n in [(11, 1), (23, 1), (3, 3), (47, 1), (3, 5)]:
        f = make_field(p, n)
        for fam in table1_exponents(f):
            spec = BinomialSpec(fam.r, 1)
            for b in f.elements():
                d = dij_counts(f, spec, b)
                if not (d.d01 == 0 or d.d10 == 0):
                    return False
                if d.d01 > 1 or d.d10 > 1:
                    return False
                if b in (0, 2 % f.p) and (d.d01 or d.d10):
                    return False
                if b == 0 and d.d00 != 0:
                    return False
                if b == 0:
                    continue
                counts = bijkl_counts(f, spec, b).counts
                if any(counts[k] for k in ("0101", "0110", "1010", "1001")):
                    return False
                if counts["0000"]:
                    return False
                if any(c for key, c in counts.items() if "11" in (key[:2], key[2:])):
                    return False
                if any(counts[k] > 1 for k in ("0001", "0010", "0100", "1000")):
                    return False
                if not (
                    (counts["0100"] == 0 and counts["1000"] == 0)
                    or (counts["0001"] == 0 and counts["0010"] == 0)
                ):
                    return False
    return True


def _predicate_lemmas_check() -> bool:
    # cube and inverse-cube difference-class predicates
    for q in (11, 23, 47, 59):
        f = make_field(q, 1)
        e = (2 * q - 1) // 3
        alpha = f.pow(2, e)
        c3 = f.chi(3)
        spec3 = BinomialSpec(3, 1)
        spec_inv = BinomialSpec(e, 1)
        for b in range(1, q):
            d3 = dij_counts(f, spec3, b)
            if (d3.d00 == 1) != (f.chi((2 * b - 1) % q) == c3 and f.chi(2 * (b - 2) % q) == c3):
                return False
            if (d3.d01 + d3.d10 == 1) != (f.chi(f.mul(b, f.sub(f.pow(b, e), alpha))) == -1):
                return False
            di = dij_counts(f, spec_inv, b)
            b3 = f.pow(b, 3)
            p39 = f.chi(f.mul(b, f.sub(f.from_int(32), b3))) == 1 and \
                f.chi(f.mul(b, f.sub(b3, f.from_int(8)))) == -1
            if (di.d00 == 1) != p39:
                return False
            if (di.d01 + di.d10 == 1) != (f.chi(f.mul(b, f.sub(b3, f.from_int(8)))) == -1):
                return False
    # boomerang class predicates for the square binomial in characteristic 3
    for n in (3, 5):
        f = make_field(3, n)
        spec = BinomialSpec(2, 1)
        e = (f.q + 1) // 4
        for b in range(1, f.q):
            counts = bijkl_counts(f, spec, b).counts
            be = f.pow(b, e)
            c_b, c_p, c_m = f.chi(b), f.chi(f.add(be, 1)), f.chi(f.sub(be, 1))
            conds = {
                "0001": c_b == -1 and c_p == -1 and c_m == -1
                and f.chi(f.add(f.pow(f.sub(1, be), e), 1)) == -1,
                "0010": c_b == -1 and c_m == -1 and c_p == 1
                and f.chi(f.sub(f.pow(f.add(be, 1), e), 1)) == -1,
                "0100": c_b == 1 and c_m == 1 and c_p == 1
                and f.chi(f.add(f.pow(f.add(be, 1), e), 1)) == -1,
                "1000": c_b == 1 and c_p == 1 and c_m == -1
                and f.chi(f.sub(f.pow(f.sub(1, be), e), 1)) == -1,
            }
            for key, cond in conds.items():
                if (counts[key] == 1) != cond:
                    return False
    return True


def _bound_checks() -> bool:
    for n in (1, 3, 5, 7, 9):
        value = lambda_sum(make_field(3, n)).value
        if value * value > 4 * 3**n:
            return False
    for q in _primes(232, 3000, (11, 12)):
        omega2 = predict_ds_f3(make_field(q, 1)).omega.get(2, 0)
        lhs = q - 2 - 8 * omega2  # omega2 >= (q - 2 - 15 sqrt(q)) / 8
        if lhs > 0 and lhs * lhs > 225 * q:
            return False
    return True


def test_criterion_7_property_suite():
    checks = {
        "spectrum identities": all(
            sum(diff_spectrum(f, s).omega.values()) == f.q
            and sum(i * c for i, c in diff_spectrum(f, s).omega.items()) == f.q
            and sum(boom_spectrum(f, s).nu.values()) == f.q - 1
            for f, s in [
                (make_field(11, 1), BinomialSpec(3, 1)),
                (make_field(3, 3), BinomialSpec(2, 1)),
                (make_field(13, 1), BinomialSpec(2, 1)),
                (make_field(23, 1), BinomialSpec(15, 1)),
            ]
        ),
        "row reduction exhaustive": all(
            _check_lemma22_reductions(make_field(p, n)) for p, n in [(11, 1), (3, 3), (3, 5)]
        ),
        "class sizes on 50 fields": _fifty_field_sij_check(),
        "quadratic sums": _hundred_quadratics_check(),
        "count bounds": _count_bound_lemmas_check(),
        "predicate equivalences": _predicate_lemmas_check(),
        "envelope bounds": _bound_checks(),
    }
    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _report(7, "property suite" + (f" (failed: {failed})" if failed else " (7/7 groups)"), ok)


def test_criterion_8_verification_range(capsys):
    code = cli.main(["verify", "--theorem", "ds-f3", "--qmax", "10000"])
    out = capsys.readouterr().out
    import json

    reports = json.loads(out)
    with capsys.disabled():
        _report(
            8,
            f"verify ds-f3 exits {code} over {len(reports)} fields with q <= 10^4",
            code == 0 and all(rep["match"] for rep in reports),
        )
