#!/usr/bin/env python3
"""Measure the benchmark on the current checkout and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json once for each of SEEDS with
tracing off, then twice with tracing on (the first seed), one process
at a time, and records the machine facts taken at the start.  For each
end-to-end metric it records the median, the quartiles
(statistics.quantiles, n=4) and the spread, the distance between the
quartiles as a share of the median, beside the metric's bound.  For the
traced runs it records the per-layer metrics, checks that their counts
are identical, and keeps the accounting of tracing overhead.  Run from
the root of the checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "BASELINE.json"
SEEDS = tuple(range(1, 11))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def _stats(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main():
    sys.path.insert(0, str(HERE))
    from run import WAITING, _machine

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {
        "commit": commit or None,
        "run_seconds": seconds,
        "machine": _machine(),
        "waiting": WAITING,
        "workloads": {},
    }
    started = time.monotonic()
    seeds = list(SEEDS)
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            result, report = _run(name, seed, seconds, 0)
            runs.append((result, report))
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        end_to_end = {
            m: _stats([r["metrics"][m]["value"] for r, _ in runs], bounds[m]) for m in bounds
        }
        unscaled = {
            m: _stats([rep["unscaled_metrics"][m] for _, rep in runs], bounds[m])
            for m in runs[0][1]["unscaled_metrics"]
        }
        traced = [_run(name, seeds[0], seconds, 1) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
            for r, _ in traced
        ]
        first, first_report = traced[0]
        doc["workloads"][name] = {
            "why": w["why"],
            "seeds": seeds,
            "all_correct": all(r["correct"] for r, _ in runs + traced),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "end_to_end": end_to_end,
            "unscaled": unscaled,
            "op_tail_percentiles": runs[0][1]["op_tail_percentiles"],
            "op_calls_first_run": runs[0][1]["op_calls"],
            "per_layer": {k: v["value"] for k, v in first["metrics"].items()},
            "per_layer_counts_repeat": counts[0] == counts[1],
            "trace_accounting": first_report["accounting"],
            "zeta_by_call": first_report["trace_details"]["zeta_by_call"],
            "inputs_first_run": runs[0][1]["inputs"],
        }
    doc["elapsed_s"] = time.monotonic() - started
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
