"""Smoke test of the benchmark itself, on tiny fields.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("gf.make_field.calls", "boom.pairs", "boom.largest_class", "scan.orbits", "scan.hits")


def _run(workload: str, trace: int, seed: int = 3, cwd=run.ROOT, script=run.HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, context_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(context_line)["context"], json.loads(result_line)


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    context, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert context["seed"] == 3 and context["fields"] and context["ops_per_round"] >= 1


@pytest.mark.parametrize("workload", ("boom-apn", "scan-filter"))
def test_work_counts_repeat_exactly(workload):
    first = _result(_run(workload, 1))[1]["metrics"]
    second = _result(_run(workload, 1))[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_wrong_spectrum_is_a_failure():
    run.add_src_path()
    import workloads
    from ffbinom import gf

    workload = workloads.make_workload("boom-apn", 3, "tiny")
    fields = {pn: gf.make_field(*pn) for pn in workload.fields}
    outputs = [workloads.call(op, fields[op.field]) for op in workload.ops]
    assert run.count_failures(workload, fields, outputs) == 0

    for i, out in enumerate(outputs):
        # move one b from the lowest multiplicity to the next: sum nu is kept,
        # sum i*nu is not
        low = min(out.nu)
        nu = dict(out.nu)
        nu[low] -= 1
        nu[low + 1] = nu.get(low + 1, 0) + 1
        wrong = outputs.copy()
        wrong[i] = dataclasses.replace(out, nu=nu, uniformity=max(nu))
        assert run.count_failures(workload, fields, wrong) == 1

    raised = outputs.copy()
    raised[0] = ValueError("boom")
    assert run.count_failures(workload, fields, raised) == 1


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("boom-apn", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
