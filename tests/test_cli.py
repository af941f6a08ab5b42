import json
from pathlib import Path

import pytest

from ffbinom import cli, family, predict

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
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert f"error: {message}" in capsys.readouterr().err


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
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "no tables for q = 16777259" in capsys.readouterr().err


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


def test_scan_cli_out_file(capsys, tmp_path):
    path = tmp_path / "results.jsonl"
    code, out = run_cli(
        capsys, "scan", "--p", "3", "--n", "3", "--rmin", "2", "--rmax", "10",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert any(row["r"] == 2 and row["beta_max"] == 1 for row in rows)
