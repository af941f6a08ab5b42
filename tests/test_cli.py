import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffbinom
from ffbinom import cli, diff, family, predict, scan
from ffbinom.errors import FFBinomError
from ffbinom.gf import make_field

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_field_info(capsys):
    code, out = run_cli(capsys, "field", "info", "--p", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "generator": 3,
        "modulus": [1, 0, 2, 1],
        "n": 3,
        "p": 3,
        "q": 27,
    }


def test_field_info_prime(capsys):
    code, out = run_cli(capsys, "field", "info", "--p", "11", "--n", "1")
    payload = json.loads(out)
    assert payload["modulus"] is None
    assert payload["generator"] == 2


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "field", "info", "--p", "3", "--n", "5")
    _, second = run_cli(capsys, "field", "info", "--p", "3", "--n", "5")
    assert first == second


def test_families(capsys):
    code, out = run_cli(capsys, "families", "--p", "11", "--n", "1")
    assert code == 0
    names = {(row["name"], row["r"]) for row in json.loads(out)}
    assert ("cube", 3) in names and ("cube_inverse", 7) in names


def test_spectrum_diff_schema(capsys):
    code, out = run_cli(capsys, "spectrum", "diff", "--p", "11", "--n", "1", "--r", "3", "--u", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "locally_apn_star": True,
        "locally_apn_strict": True,
        "omega": {"0": 2, "1": 8, "3": 1},
        "q": 11,
        "r": 3,
        "u": 1,
        "uniformity": 3,
    }


def test_spectrum_diff_negative_u(capsys):
    code, out = run_cli(capsys, "spectrum", "diff", "--p", "11", "--n", "1", "--r", "3", "--u", "-1")
    payload = json.loads(out)
    assert payload["u"] == 10
    assert payload["omega"] == {"0": 2, "1": 8, "3": 1}


def test_spectrum_diff_builds_one_difference_row(capsys, monkeypatch):
    # the spectrum and the locally-APN flags share one delta_row
    calls = []
    row = diff.delta_row
    monkeypatch.setattr(diff, "delta_row", lambda field, spec: calls.append(spec) or row(field, spec))
    code, out = run_cli(capsys, "spectrum", "diff", "--p", "3", "--n", "3", "--r", "5", "--u", "2")
    assert code == 0 and len(calls) == 1
    omega = row(make_field(3, 3), calls[0]).tolist()
    assert json.loads(out)["omega"] == {str(i): omega.count(i) for i in sorted(set(omega))}


def test_spectrum_boom_schema(capsys):
    code, out = run_cli(capsys, "spectrum", "boom", "--p", "3", "--n", "3", "--r", "2")
    payload = json.loads(out)
    assert payload == {"nu": {"0": 14, "1": 12}, "q": 27, "r": 2, "uniformity": 1}


def test_charsum_cli(capsys):
    code, out = run_cli(capsys, "charsum", "gamma", "--p", "23", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -3 and payload["tight"]
    code, out = run_cli(capsys, "charsum", "lambda", "--p", "3", "--n", "3")
    assert json.loads(out)["value"] == -10


def test_charsum_lambda_and_verify_above_table_limit(capsys):
    # Lambda reads no table, so charsum lambda answers on F_{3^17}; verify
    # there still needs the oracle's tables and exits 1
    code, out = run_cli(capsys, "charsum", "lambda", "--p", "3", "--n", "17")
    assert code == 0
    assert json.loads(out)["value"] == -19582
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--theorem", "bs-f2", "--p", "3", "--n", "17"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert f"no tables for q = {3**17}" in captured.err and captured.out == ""


def test_charsum_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["charsum", "gamma", "--p", "13", "--n", "1"])
    assert exc.value.code == 1


def test_verify_single_field(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "ds-f3", "--p", "23", "--n", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["match"] is True


def test_verify_bs_f2_and_cm_equiv(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "bs-f2", "--p", "3", "--n", "3")
    reports = json.loads(out)
    assert code == 0 and reports[0]["char_sum"] == -10
    code, out = run_cli(capsys, "verify", "--theorem", "cm-equiv", "--p", "3", "--n", "3")
    assert code == 0
    assert json.loads(out)[0]["oracle"]["pointwise"] is True


def test_verify_qmax(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "ds-f3inv", "--qmax", "100")
    assert code == 0
    reports = json.loads(out)
    assert [rep["q"] for rep in reports] == [11, 23, 47, 59, 71, 83]
    assert all(rep["match"] for rep in reports)


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    # exit-code plumbing; the report itself is fabricated
    bogus = predict.VerifyReport("ds-f3", 23, 1, 23, {"omega": {}}, {"omega": {}}, False)
    monkeypatch.setattr(cli.predict, "verify", lambda *a, **k: bogus)
    code, _ = run_cli(capsys, "verify", "--theorem", "ds-f3", "--p", "23", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("argv,golden", [
    ("verify --theorem du --p 11 --n 1", "verify_du_11.json"),
    ("verify --theorem ds-f3 --p 11 --n 1", "verify_ds-f3_11.json"),
    ("verify --theorem ds-f3 --p 23 --n 1", "verify_ds-f3_23.json"),
    ("verify --theorem ds-f3inv --p 11 --n 1", "verify_ds-f3inv_11.json"),
    ("verify --theorem bs-f2 --p 3 --n 3", "verify_bs-f2_27.json"),
    ("verify --theorem cm-equiv --p 3 --n 3", "verify_cm-equiv_27.json"),
    ("verify --theorem du --qmax 12", "verify_du_qmax12.json"),
    ("verify --theorem ds-f3 --qmax 50", "verify_ds-f3_qmax50.json"),
    ("verify --theorem ds-f3inv --qmax 50", "verify_ds-f3inv_qmax50.json"),
    ("verify --theorem bs-f2 --qmax 243", "verify_bs-f2_qmax243.json"),
    ("verify --theorem cm-equiv --qmax 243", "verify_cm-equiv_qmax243.json"),
    ("tables --which ds-f3", "tables_ds-f3.csv"),
    ("tables --which bs-f2", "tables_bs-f2.csv"),
    # a 547-member class with one value; k = 1, 5, 5 in three large classes;
    # u = 0 with a linear r, which still reaches the FFT
    ("spectrum boom --p 3 --n 7 --r 2 --u 1", "spectrum_boom_3_7_2_1.json"),
    ("spectrum boom --p 13 --n 3 --r 5 --u 12", "spectrum_boom_13_3_5_12.json"),
    ("spectrum boom --p 3 --n 4 --r 3 --u 0", "spectrum_boom_3_4_3_0.json"),
    ("spectrum boom --p 7 --n 2 --r 4 --u 6", "spectrum_boom_7_2_4_6.json"),
    ("spectrum boom --p 23 --n 1 --r 15 --u 1", "spectrum_boom_23_1_15_1.json"),
    # the F_p rows come from a rotation of the value table, the F_{p^n} ones
    # from succ_table
    ("spectrum diff --p 23 --r 3", "spectrum_diff_23_1_3_1.json"),
    ("spectrum diff --p 1019 --r 5 --u 3", "spectrum_diff_1019_1_5_3.json"),
    ("spectrum diff --p 3 --n 5 --r 2", "spectrum_diff_3_5_2_1.json"),
    ("spectrum diff --p 7 --n 2 --r 4 --u 6", "spectrum_diff_7_2_4_6.json"),
    # every orbit of F_{3^5}; with two workers the results are pickled
    ("scan --p 3 --n 5 --jobs 1", "scan_3_5.jsonl"),
    ("scan --p 3 --n 5 --jobs 2", "scan_3_5.jsonl"),
])
def test_output_matches_golden(capsys, argv, golden):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_verify_cm_equiv_pointwise_failure_exits_2(capsys, monkeypatch):
    partner = family.cm_equiv_partner
    monkeypatch.setattr(family, "cm_equiv_partner", lambda n, k: partner(n, k) + 1)
    code, out = run_cli(capsys, "verify", "--theorem", "cm-equiv", "--p", "3", "--n", "3")
    assert code == 2
    [report] = json.loads(out)
    assert report["match"] is False
    assert report["oracle"]["pointwise"] is False and report["predicted"]["pointwise"] is True
    assert report["oracle"]["nu"] == report["predicted"]["nu"] and report["first_mismatch"] is None


def test_verify_du_loops_families(capsys):
    code, out = run_cli(capsys, "verify", "--theorem", "du", "--p", "11", "--n", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3  # p+1, cube, cube inverse
    assert all(rep["match"] for rep in reports)


def test_verify_du_without_special_exponent_exits_1(capsys):
    # with q = 1 (mod 4) no special exponent applies: the run used to print
    # [] and exit 0 having verified nothing
    for argv in (["--p", "5"], ["--p", "3", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--theorem", "du", *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "is not 3 mod 4: theorem 'du' has no special exponent" in captured.err and captured.out == ""
    code, out = run_cli(capsys, "verify", "--theorem", "du", "--p", "7")
    assert code == 0 and json.loads(out)


def test_usage_errors_exit_1(capsys):
    for argv, message in (
        (["spectrum", "diff", "--p", "11"], "the following arguments are required: --r"),
        (["verify", "--theorem", "ds-f3"], "verify needs --p/--n or --qmax"),
        (["field", "info", "--p", "9", "--n", "1"], "p = 9 is not prime"),
        (["nonsense"], "argument command: invalid choice: 'nonsense'"),
        (["spectrum", "diff", "--p", "11", "--r", "0"], "exponent must be >= 1, got 0"),
        (["spectrum", "boom", "--p", "11", "--r", "-2"], "exponent must be >= 1, got -2"),
        (["spectrum", "boom", "--p", "11", "--r", "3", "--u", "11"], "u = 11 is not an element of F_11"),
        (["verify", "--theorem", "du", "--p", "11", "--r", "0"], "exponent must be >= 1, got 0"),
        # a worker count below 1 used to run serially and exit 0
        (["scan", "--p", "3", "--n", "3", "--rmax", "5", "--jobs", "0"], "need jobs >= 1, got 0"),
        (["scan", "--p", "3", "--n", "3", "--rmax", "5", "--jobs", "-3"], "need jobs >= 1, got -3"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_verify_r_only_for_du_on_one_field(capsys):
    # --r used to be ignored: ds-f3 printed its r = 3 report and exited 0,
    # and du with --qmax ran every special exponent of each field; --p and
    # --n with --qmax were dropped the same way, and the whole sweep ran
    for argv, message in (
        (["verify", "--theorem", "ds-f3", "--p", "23", "--r", "5"], "theorem 'ds-f3' fixes its own exponent"),
        (["verify", "--theorem", "du", "--qmax", "20", "--r", "5"], "--r needs a single field"),
        (["verify", "--theorem", "ds-f3", "--p", "23", "--qmax", "50"], "--qmax walks its own fields: drop --p/--n"),
        (["verify", "--theorem", "ds-f3", "--n", "1", "--qmax", "50"], "--qmax walks its own fields: drop --p/--n"),
        # a sweep with no field printed [] and exited 0
        (["verify", "--theorem", "ds-f3", "--qmax", "10"], "theorem 'ds-f3' applies to no field of order at most 10"),
        (["verify", "--theorem", "bs-f2", "--qmax", "26"], "theorem 'bs-f2' applies to no field of order at most 26"),
        (["verify", "--theorem", "du", "--qmax", "2"], "theorem 'du' applies to no field of order at most 2"),
        (["verify", "--theorem", "ds-f3", "--qmax", "-5"], "theorem 'ds-f3' applies to no field of order at most -5"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_module_entry_point_exit_codes():
    # python -m ffbinom runs __main__ and cli.entry, whose sys.exit carries
    # main's code to the process: 0 on a match, 1 on a usage error
    src = str(Path(ffbinom.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ffbinom", *argv], capture_output=True, text=True, env=env, timeout=120)

    done = run("verify", "--theorem", "ds-f3", "--p", "23")
    assert done.returncode == 0, done.stderr
    [report] = json.loads(done.stdout)
    assert (report["theorem"], report["q"], report["match"]) == ("ds-f3", 23, True)
    done = run("verify", "--theorem", "ds-f3", "--qmax", "10")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "error: theorem 'ds-f3' applies to no field of order at most 10" in done.stderr

def test_error_inside_tables_exits_1(capsys, monkeypatch):
    # every command shares the one error exit of main, tables included
    def fail(*args, **kwargs):
        raise FFBinomError("no verification today")

    monkeypatch.setattr(predict, "verify", fail)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "--which", "ds-f3"])
    assert exc.value.code == 1
    assert "error: no verification today" in capsys.readouterr().err


def test_overflow_rejected_at_parse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["field", "info", "--p", "3", "--n", "41"])
    assert exc.value.code == 1
    assert "field order 3^41 exceeds 2^63" in capsys.readouterr().err


def test_bulk_ops_above_table_limit_exit_1(capsys):
    # 16777259 is the first prime above 2^24: no tables, so no spectra
    for argv in (
        ["spectrum", "diff", "--p", "16777259", "--r", "3"],
        ["spectrum", "boom", "--p", "16777259", "--r", "2"],
        ["charsum", "gamma", "--p", "16777259"],
        # refused before any field is built, not after a sweep of hours
        ["verify", "--theorem", "du", "--qmax", "16777259"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "no tables for q = 16777259" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,modulus,families",
    [
        (["--p", "3", "--n", "16"], [1] + [0] * 12 + [1, 1, 0, 1], []),
        (["--p", "16777259"], None, [("p_power_plus_one", 1, 16777260, 2), ("cube", None, 3, 1),
                                     ("cube_inverse", None, 11184839, 1)]),
    ],
)
def test_field_without_tables_keeps_info_and_families(capsys, argv, modulus, families):
    # above the table limit a field carries p, n, q and its modulus, which is
    # all that field info and families read
    code, out = run_cli(capsys, "field", "info", *argv)
    assert code == 0
    info = json.loads(out)
    assert info["modulus"] == modulus and info["generator"] is None
    assert info["q"] == info["p"] ** info["n"] > 2**24
    code, out = run_cli(capsys, "families", *argv)
    assert code == 0
    assert [(row["name"], row["k"], row["r"], row["gcd"]) for row in json.loads(out)] == families


@pytest.mark.parametrize("p,modulus", [(2147483647, [1, 0, 1]), (3037000493, [1, 1, 1])])
def test_field_info_prime_square_near_2_63(capsys, p, modulus):
    # the modulus search is the same batched test here as below 2^24: it
    # ended in a MemoryError when it enumerated range(p) as a tuple
    code, out = run_cli(capsys, "field", "info", "--p", str(p), "--n", "2")
    assert code == 0
    assert json.loads(out) == {"generator": None, "modulus": modulus, "n": 2, "p": p, "q": p * p}


def test_u_outside_field_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "diff", "--p", "11", "--n", "1", "--r", "3", "--u", "11"])
    assert exc.value.code == 1


def test_tables_ds_f3_golden(capsys):
    code, out = run_cli(capsys, "tables", "--which", "ds-f3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,gamma,omega_0,omega_1,omega_2,omega_(q+1)/4"
    rows = [line.split(",") for line in lines[1:]]
    table = {int(r[0]): [int(v) for v in r[1:]] for r in rows}
    assert table[11] == [2, 2, 8, 0, 1]
    assert table[23] == [-3, 9, 9, 4, 1]
    assert table[167] == [13, 55, 97, 14, 1]
    assert table[227] == [0, 84, 114, 28, 1]
    assert len(table) == 12


def test_tables_bs_f2_golden(capsys):
    code, out = run_cli(capsys, "tables", "--which", "bs-f2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,nu_0,nu_1"
    assert lines[1:] == [
        "3,-10,14,12",
        "5,2,182,60",
        "7,86,1682,504",
        "9,-190,14666,5016",
    ]


def test_scan_cli_stdout(capsys):
    code, out = run_cli(capsys, "scan", "--p", "11", "--n", "1", "--rmin", "2", "--rmax", "9")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {row["r"] for row in rows} == {2, 3, 4, 6, 7, 8, 9}


def test_scan_cli_rejects_q_1_mod_4(capsys):
    # on F_13 the a = 1 row of r = 2 has beta_max 0 while beta reaches 4
    # at another shift: a hit there would rest on the wrong row
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--p", "13", "--rmin", "2", "--rmax", "6"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "q = 3 (mod 4)" in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["junk", "0", "-4"])
def test_scan_cli_rejects_bad_jobs_env(capsys, monkeypatch, value):
    # such a value used to run serially and exit 0
    monkeypatch.setenv("FFBINOM_JOBS", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--p", "3", "--n", "3", "--rmin", "2", "--rmax", "5"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert f"error: FFBINOM_JOBS must be a positive integer, got {value!r}" in captured.err and captured.out == ""


def test_scan_cli_out_file(capsys, tmp_path):
    path = tmp_path / "results.jsonl"
    code, out = run_cli(
        capsys, "scan", "--p", "3", "--n", "3", "--rmin", "2", "--rmax", "10",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert any(row["r"] == 2 and row["beta_max"] == 1 for row in rows)


def test_scan_cli_unwritable_out_fails_before_scanning(capsys, monkeypatch, tmp_path):
    # the scan used to run to the end and then die in write_jsonl with a
    # FileNotFoundError traceback, losing every result
    def refuse(*args, **kwargs):
        raise AssertionError("scan_exponents ran before --out was opened")

    monkeypatch.setattr(scan, "scan_exponents", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--p", "3", "--n", "7", "--out", str(tmp_path / "missing" / "x.jsonl")])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: cannot open --out" in captured.err
