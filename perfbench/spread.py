#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads boom-apn,scan-filter --seeds 1-10 --seconds 27

For every (workload, metric) it prints the median and the quartile spread
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives the
quartiles, next to a third of the metric's bound in BENCHMARK.json.  Runs
are sequential, one process at a time.  --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma-separated list")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    summary: dict = {"seeds": parse_seeds(args.seeds), "seconds": seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        context: dict = {}
        fields: dict[int, list] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            *_, context_line, result_line = proc.stdout.strip().splitlines()
            context = json.loads(context_line)["context"]
            fields[seed] = [[f["p"], f["n"]] for f in context["fields"]]
            result = json.loads(result_line)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for key in ("python", "numpy", "nproc", "cpus_usable"):
            summary.setdefault(key, context.get(key))
        entry = summary["workloads"][workload] = {
            "why": context.get("why"),
            "fields_by_seed": fields,
            "ops_per_round": context.get("ops_per_round"),
            "metrics": {},
        }
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE") + f" (bound/3 {bound / 3:.3f})"
            print(f"{workload:13s} {name:28s} median {med:<12.6g} spread {spread:.4f} {mark}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
