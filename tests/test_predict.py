import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffbinom import charsum, diff, predict
from ffbinom.boom import boom_spectrum
from ffbinom.charsum import CharSumResult
from ffbinom.diff import diff_spectrum
from ffbinom.errors import FFBinomError, HypothesisUnverifiedError, InvariantError, NotApplicableError, WrongResidueError
from ffbinom.family import BinomialSpec, table1_exponents
from ffbinom.gf import TABLE_LIMIT, make_field
from ffbinom.predict import (
    fields_for,
    predict_bs_f2,
    predict_ds_f3,
    predict_ds_f3inv,
    predict_du,
    verify,
)


def test_predict_du_examples():
    assert predict_du(make_field(11, 1), 3).delta == 3
    assert predict_du(make_field(3, 3), 2).delta == 7
    assert predict_du(make_field(23, 1), 15).delta == 6
    assert predict_du(make_field(11, 1), 3).locally_apn_star


def test_predict_du_hypothesis_failures():
    with pytest.raises(HypothesisUnverifiedError):
        predict_du(make_field(3, 3), 14)  # S00 collision fails
    with pytest.raises(HypothesisUnverifiedError):
        predict_du(make_field(11, 1), 5)  # gcd(5, 10) = 5
    with pytest.raises(HypothesisUnverifiedError):
        predict_du(make_field(13, 1), 2)  # q = 1 mod 4


def test_predict_du_verified_nontable_exponent():
    # r = 7 over F_27 passes the collision filter without a family entry
    pred = predict_du(make_field(3, 3), 7)
    assert pred.delta == 7


@pytest.mark.parametrize("q,expected", [
    (11, {0: 2, 1: 8, 3: 1}),
    (23, {0: 9, 1: 9, 2: 4, 6: 1}),
    (167, {0: 55, 1: 97, 2: 14, 42: 1}),
])
def test_predict_ds_f3(q, expected):
    assert predict_ds_f3(make_field(q, 1)).omega == expected


def test_predict_ds_f3_wrong_residue():
    with pytest.raises(WrongResidueError):
        predict_ds_f3(make_field(13, 1))
    with pytest.raises(WrongResidueError):
        predict_ds_f3(make_field(7, 1))  # 7 = 7 mod 12


@pytest.mark.parametrize("q,expected", [
    (23, {0: 10, 1: 7, 2: 5, 6: 1}),
    (47, {0: 22, 1: 13, 2: 11, 12: 1}),
])
def test_predict_ds_f3inv(q, expected):
    pred = predict_ds_f3inv(make_field(q, 1))
    assert pred.omega == expected
    assert sum(pred.omega.values()) == q
    assert sum(i * c for i, c in pred.omega.items()) == q


@pytest.mark.parametrize("n,expected", [
    (3, {0: 14, 1: 12}),
    (7, {0: 1682, 1: 504}),
])
def test_predict_bs_f2(n, expected):
    pred = predict_bs_f2(make_field(3, n))
    assert pred.nu == expected
    assert pred.uniformity == 1


def test_predict_bs_f2_not_applicable():
    with pytest.raises(NotApplicableError):
        predict_bs_f2(make_field(11, 1))
    with pytest.raises(NotApplicableError):
        predict_bs_f2(make_field(3, 1))


def test_verify_refuses_r_outside_du():
    # every theorem but du fixes its exponent; an r given to it was ignored
    for theorem in ("ds-f3", "ds-f3inv"):
        with pytest.raises(NotApplicableError, match="takes no r"):
            verify(make_field(23, 1), theorem, 5)
    with pytest.raises(NotApplicableError, match="takes no r"):
        verify(make_field(3, 3), "bs-f2", 2)
    with pytest.raises(NotApplicableError, match="needs an exponent r"):
        verify(make_field(23, 1), "du")


def test_verify_ds_f3_matches():
    report = verify(make_field(23, 1), "ds-f3")
    assert report.match
    assert report.char_sum == -3
    assert report.first_mismatch is None
    assert report.predicted["omega"] == report.oracle["omega"]


def test_verify_q11_edge_is_tagged():
    report = verify(make_field(11, 1), "ds-f3")
    assert report.match
    assert "outside theorem hypothesis" in report.note
    inv_report = verify(make_field(11, 1), "ds-f3inv")
    assert inv_report.match
    assert "outside theorem hypothesis" in inv_report.note


def test_verify_bs_f2_matches():
    report = verify(make_field(3, 3), "bs-f2")
    assert report.match
    assert report.char_sum == -10


def test_verify_bs_f2_largest_table_row():
    report = verify(make_field(3, 9), "bs-f2")
    assert report.match
    assert report.char_sum == -190


def test_verify_cm_equiv():
    report = verify(make_field(3, 3), "cm-equiv")
    assert report.match
    assert report.oracle["pointwise"]
    assert report.oracle["nu"] == {0: 14, 1: 12}


@pytest.mark.parametrize("theorem,p,n,sum_name,value", [
    # omega_0 = (60 - 4 Gamma)/8 on F_23 needs an odd Gamma, and
    # nu_1 = (28 - 2 Lambda)/4 on F_27 an even Lambda
    ("ds-f3", 23, 1, "gamma", 0),
    ("bs-f2", 3, 3, "lambda_sum", 1),
    ("cm-equiv", 3, 3, "lambda_sum", 1),
])
def test_wrong_parity_char_sum_raises(monkeypatch, theorem, p, n, sum_name, value):
    monkeypatch.setattr(charsum, sum_name, lambda field: CharSumResult(value, 0.0, True))
    with pytest.raises(InvariantError):
        verify(make_field(p, n), theorem)


@pytest.mark.parametrize("theorem,p,n,sum_name", [
    ("ds-f3", 23, 1, "gamma"),
    ("bs-f2", 3, 3, "lambda_sum"),
    ("cm-equiv", 3, 3, "lambda_sum"),
])
def test_verify_computes_char_sum_once(monkeypatch, theorem, p, n, sum_name):
    calls = []
    original = getattr(charsum, sum_name)
    monkeypatch.setattr(charsum, sum_name, lambda field: calls.append(field) or original(field))
    report = verify(make_field(p, n), theorem)
    assert report.match and len(calls) == 1
    assert report.char_sum == original(make_field(p, n)).value


_PARITY_GUARD_UNDER_O = """
from ffbinom import charsum, predict
from ffbinom.charsum import CharSumResult
from ffbinom.errors import InvariantError
from ffbinom.gf import TABLE_LIMIT, make_field

if __debug__:
    raise SystemExit(2)
charsum.gamma = lambda field: CharSumResult(0, 0.0, True)
try:
    predict.predict_ds_f3(make_field(23, 1))
except InvariantError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_parity_guard_survives_optimize():
    src = str(Path(predict.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", _PARITY_GUARD_UNDER_O], env=env, timeout=120)
    assert done.returncode == 0


def test_verify_du_all_families_f11():
    f = make_field(11, 1)
    for fam in table1_exponents(f):
        report = verify(f, "du", fam.r)
        assert report.match, fam


def test_verify_du_prime_power_field():
    f = make_field(7, 3)
    for fam in table1_exponents(f):
        report = verify(f, "du", fam.r)
        assert report.match
        assert report.predicted["delta"] == (f.q + 1) // 4 == 86


@pytest.mark.parametrize("p,n,r", [(11, 1, 3), (23, 1, 15), (7, 3, 8)])
def test_verify_du_builds_one_difference_row(monkeypatch, p, n, r):
    # the uniformity and the locally-APN flag share one delta_row, and the
    # spectrum's identity check still guards it
    calls = []
    row = diff.delta_row
    monkeypatch.setattr(diff, "delta_row", lambda field, spec: calls.append(spec) or row(field, spec))
    report = verify(make_field(p, n), "du", r)
    assert report.match and len(calls) == 1

    def corrupted(field, spec):
        out = row(field, spec)
        out[1] += 1
        return out

    monkeypatch.setattr(diff, "delta_row", corrupted)
    with pytest.raises(InvariantError):
        verify(make_field(p, n), "du", r)


def test_verify_du_needs_r():
    with pytest.raises(NotApplicableError):
        verify(make_field(11, 1), "du")


def test_verify_unknown_theorem():
    with pytest.raises(NotApplicableError):
        verify(make_field(11, 1), "nope")


def test_verify_report_to_dict_is_jsonable():
    import json

    report = verify(make_field(23, 1), "ds-f3")
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert '"match": true' in payload


def test_predictions_agree_with_oracles_sweep():
    for q in (11, 23, 47, 59, 71, 83):
        f = make_field(q, 1)
        assert predict_ds_f3(f).omega == diff_spectrum(f, BinomialSpec(3, 1)).omega
        assert predict_ds_f3inv(f).omega == diff_spectrum(
            f, BinomialSpec((2 * q - 1) // 3, 1)
        ).omega
    for n in (3, 5):
        f = make_field(3, n)
        assert predict_bs_f2(f).nu == boom_spectrum(f, BinomialSpec(2, 1)).nu


def test_fields_for():
    qs = [f.q for f in fields_for("ds-f3", 231)]
    assert qs == [11, 23, 47, 59, 71, 83, 107, 131, 167, 179, 191, 227]
    assert 239 in [f.q for f in fields_for("ds-f3", 250)]
    ns = [f.n for f in fields_for("bs-f2", 20000)]
    assert ns == [3, 5, 7, 9]
    du_qs = [f.q for f in fields_for("du", 30)]
    assert du_qs == [3, 7, 11, 19, 23, 27]
    with pytest.raises(NotApplicableError):
        list(fields_for("nope", 100))


def test_fields_for_refuses_orders_without_tables():
    # above TABLE_LIMIT at the first step, before any field is built
    make_field.cache_clear()
    sweep = fields_for("du", TABLE_LIMIT + 1)
    with pytest.raises(FFBinomError, match=f"no tables for q = {TABLE_LIMIT + 1}"):
        next(sweep)
    assert make_field.cache_info().misses == 0
    assert [f.q for f in fields_for("du", 7)] == [3, 7]


def test_fields_for_includes_prime_powers():
    qs = [f.q for f in fields_for("ds-f3", 1400)]
    assert 1331 in qs  # 11^3 = 11 mod 12


def test_result_records_are_slotted():
    # a caller that keeps many reports (a verify sweep, a benchmark's output
    # gate) holds no per-instance __dict__ for any of them
    from ffbinom.boom import bijkl_counts

    f, spec = make_field(11, 1), BinomialSpec(3, 1)
    results = [
        verify(f, "du", 3),
        predict_du(f, 3),
        diff_spectrum(f, spec),
        diff.dij_counts(f, spec, 2),
        diff.locally_apn_check(f, spec),
        diff.d00_condition(f, 3),
        bijkl_counts(f, spec, 2),
        charsum.gamma(f),
        *diff.row_report(f, spec),
    ]
    assert [type(x).__name__ for x in results] == [
        "VerifyReport", "DuPrediction", "DiffSpectrum", "DijCounts",
        "LocallyApnReport", "CollisionReport", "BijklCounts", "CharSumResult",
        "DiffSpectrum", "LocallyApnReport",
    ]
    for x in results:
        assert not hasattr(x, "__dict__"), type(x).__name__
