#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/summary.json

For every workload (or those named with ``--workload``) it runs
``perfbench/run.py`` once per seed, one run at a time, and reports per
end-to-end metric the median, the quartiles and the spread: the distance
between the quartiles over the median.  It also lists the ops that failed.
``--trace`` adds one traced run per workload and records its per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run and the result file it wrote."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    elapsed = time.perf_counter() - started
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        record = json.load(handle)
    record["elapsed_s"] = elapsed
    return json.loads(proc.stdout.splitlines()[-1]), record


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        pairs = [run_once(workload, seed, spec["run_seconds"], 0)
                 for seed in range(args.first_seed, args.first_seed + args.seeds)]
        runs = [result for result, _ in pairs]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "failed_ops": sorted({label for _, rec in pairs for label, _ in rec["failed_ops"]}),
            "list_wall_s_median": summarise([rec["list_wall_s_median"] for _, rec in pairs]),
            "elapsed_s": [rec["elapsed_s"] for _, rec in pairs],
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs])
                        for name in bounds},
        }
        if args.trace:
            traced, _ = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = entry
        for name, stats in entry["metrics"].items():
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  <-- over a third of its bound"
            print(f"{workload:<11} {name:<12} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.3f}  bound {bounds[name]}{flag}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
