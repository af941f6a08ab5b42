#!/usr/bin/env python3
"""ffbinom benchmark: one closed-loop client driving the public library API.

    python3 perfbench/run.py --workload boom-apn --seed 1 --seconds 27 --trace 0

Run from the repository root; the library is imported from ./src.  One
client issues the next operation only after the previous one returns.  The
timed loop repeats whole rounds of the workload's seeded operations until
--seconds have passed, then every output is checked outside the timed
region.  Each operation's latency is its best time over the run's rounds:
other tenants of a shared machine only ever add time, so the best time
drops short interference.
--trace 0 prints the end-to-end metrics; --trace 1 runs half the
time untraced and then the same number of rounds with spans around each
layer, and prints the per-layer metrics.  The last stdout line is the
result object; the line before it holds the run's context.  Results and
spans are also written to perfbench/out/.  Exit status is 0 only when every
operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("boom-apn", "boom-generic", "verify-sweep", "scan-filter")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many operations above it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",  # operations per round / sum of their best latencies
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metrics of the traced run.  `.s` and `.self_s` are seconds and
# `.calls` counts per round of operations; gf.make_field.* cover one cold
# set-up instead.
PER_LAYER = {
    "gf.make_field.s": "s",
    "gf.make_field.calls": "count",
    "gf.outer_diff_hist.s": "s",
    "gf.outer_diff_hist.calls": "count",
    "gf.power_table.s": "s",
    "gf.mul_arrays.s": "s",
    "gf.add_arrays.s": "s",
    "gf.sub_arrays.s": "s",
    "family.eval_table.s": "s",
    "family.eval_table.calls": "count",
    "family.evaluate.calls": "count",
    "diff.delta_row.s": "s",
    "diff.diff_spectrum.self_s": "s",
    "diff.locally_apn_check.s": "s",
    "diff.d00_condition.s": "s",
    "diff.d00_condition.calls": "count",
    "boom.boom_spectrum.s": "s",
    "boom.beta_profile.self_s": "s",
    "charsum.gamma.s": "s",
    "charsum.gamma.calls": "count",
    "charsum.lambda_sum.s": "s",
    "predict.verify.self_s": "s",
    "predict.verify.calls": "count",
    "predict.match_ratio": "ratio",
    "scan.scan_exponents.self_s": "s",
    "scan.orbits": "count",
    "scan.hits": "count",
    "scan.hit_ratio": "ratio",
    "boom.pairs": "count",
    "boom.largest_class": "count",
    "trace.overhead_ratio": "ratio",
}


# workloads.py and tracing.py import ffbinom, so they are imported inside the
# functions below, after add_src_path() has run.
def add_src_path() -> None:
    """Put ./src first on sys.path, refusing to run without the sources."""
    src = ROOT / "src"
    if not (src / "ffbinom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ffbinom sources under {src}")
    sys.path.insert(0, str(src))


@dataclass
class Phase:
    wall: float  # seconds from the first call to the last return
    rounds: int
    latencies: list[float]  # round after round, in the round's operation order
    outputs: list  # one per operation; an exception object if the call raised


def cold_setup(workload, make_field_cache) -> dict:
    """Build every field from an empty cache, with the lazy tables the
    operations use, through the public make_field."""
    from ffbinom import gf

    make_field_cache.cache_clear()
    fields = {}
    for p, n in workload.fields:
        field = gf.make_field(p, n)
        field.succ_table
        if n > 1:
            field._digits
        fields[(p, n)] = field
    return fields


def run_rounds(workload, fields: dict, seconds: float | None, rounds: int | None = None) -> Phase:
    """Closed loop over whole rounds, until `seconds` pass or `rounds` are done."""
    import workloads

    latencies, outputs, done = [], [], 0
    start = perf_counter()
    while True:
        for op in workload.ops:
            field = fields[op.field]
            t0 = perf_counter()
            try:
                out = workloads.call(op, field)
            except Exception as exc:  # a raising operation is a failed operation
                out = exc
            latencies.append(perf_counter() - t0)
            outputs.append(out)
        done += 1
        now = perf_counter()
        if done == rounds or (rounds is None and now - start >= seconds):
            return Phase(now - start, done, latencies, outputs)


def count_failures(workload, fields: dict, outputs: list) -> int:
    """Operations that raised or failed their output check."""
    import workloads

    references: dict = {}
    failed = 0
    for i, out in enumerate(outputs):
        op = workload.ops[i % len(workload.ops)]
        if isinstance(out, Exception) or not workloads.check(op, fields[op.field], out, references):
            failed += 1
    return failed


def end_to_end(workload, context: dict) -> tuple[dict, int, int]:
    from ffbinom import gf

    make_field_cache = gf.make_field
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        fields = cold_setup(workload, make_field_cache)
        setups.append(perf_counter() - t0)
    phase = run_rounds(workload, fields, context["seconds"])
    failed = count_failures(workload, fields, phase.outputs)

    attempted = len(phase.latencies)
    k = len(workload.ops)
    # latency of each operation of the round: its best over the rounds
    best = sorted(min(phase.latencies[i::k]) for i in range(k))
    tail = max(0, k - 1 - TAIL_BEYOND)
    context.update(
        setup_s_each=setups,
        rounds=phase.rounds,
        ops=attempted,
        op_tail_percentile=100 * (tail + 1) / k,
        op_tail_samples_beyond=k - 1 - tail,
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": k / sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_s": best[tail],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def _boom_work(calls: list[tuple]) -> tuple[int, int]:
    """Sum of size^2 over classes of size >= 2, and the largest class, over
    the recorded boom_spectrum calls."""
    import workloads

    pairs, largest, seen = 0, 0, {}
    for field, spec in calls:
        key = (field.p, field.n, spec)
        if key not in seen:
            sizes = workloads.class_sizes(field, spec)
            big = sizes[sizes >= 2]
            seen[key] = (int((big * big).sum()), int(sizes.max()))
        pairs += seen[key][0]
        largest = max(largest, seen[key][1])
    return pairs, largest


def per_layer(workload, context: dict, run_name: str) -> tuple[dict, int, int]:
    import tracing
    from ffbinom import gf

    make_field_cache = gf.make_field
    fields = cold_setup(workload, make_field_cache)
    plain = run_rounds(workload, fields, context["seconds"] / 2)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced_fields = cold_setup(workload, make_field_cache)
        setup_spans, _, _ = tracer.take()
        traced = run_rounds(workload, traced_fields, None, rounds=plain.rounds)
        round_spans, counts, args = tracer.take()
    finally:
        tracing.uninstall(undo)

    failed = count_failures(workload, fields, plain.outputs)
    failed += count_failures(workload, traced_fields, traced.outputs)
    attempted = len(plain.outputs) + len(traced.outputs)

    rounds = traced.rounds
    setup = tracing.summarize(setup_spans)
    layers = tracing.summarize(round_spans)

    def per_round(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0) / rounds

    kinds = [op.kind for op in workload.ops] * rounds
    verify_out = [out for kind, out in zip(kinds, traced.outputs) if kind == "verify"]
    scan_out = [out for kind, out in zip(kinds, traced.outputs) if kind == "scan"]
    orbits = sum(len(out) for out in scan_out)
    hits = sum(res.d00_holds for out in scan_out for res in out)
    matches = sum(out.match is True for out in verify_out)
    pairs, largest = _boom_work(args["boom.boom_spectrum"])

    metrics = {
        "gf.make_field.s": setup["gf.make_field"]["s"],
        "gf.make_field.calls": setup["gf.make_field"]["calls"],
    }
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("s", "self_s", "calls") and name not in metrics:
            metrics[name] = per_round(layer, key)
    metrics.update(
        {
            "family.evaluate.calls": counts["family.evaluate"] / rounds,
            "predict.match_ratio": matches / len(verify_out) if verify_out else 0.0,
            "scan.orbits": orbits / rounds,
            "scan.hits": hits / rounds,
            "scan.hit_ratio": hits / orbits if orbits else 0.0,
            "boom.pairs": pairs / rounds,
            "boom.largest_class": largest,
            "trace.overhead_ratio": traced.wall / plain.wall,
        }
    )
    context.update(rounds=rounds, ops=attempted, untraced_s=plain.wall, traced_s=traced.wall)
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(OUT_DIR / f"{run_name}.spans.jsonl", {"setup": setup_spans, "rounds": round_spans})
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: small fields, for tests")
    args = parser.parse_args(argv)

    add_src_path()
    import numpy as np
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, args.scale)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "fields": [{"p": p, "n": n, "q": p**n} for p, n in workload.fields],
        "ops_per_round": len(workload.ops),
    }
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    if args.trace:
        metrics, attempted, failed = per_layer(workload, context, run_name)
        units = PER_LAYER
    else:
        metrics, attempted, failed = end_to_end(workload, context)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run_name}.json").write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
