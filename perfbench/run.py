#!/usr/bin/env python3
"""cmtk benchmark: four seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload catalogue|forms|orbits|splitting \
        --seed N --seconds S --trace 0|1

Run from the root of a cmtk checkout; cmtk is imported from ``src/``.
Every sample runs in a fresh single-threaded interpreter (perfbench/
worker.py), one at a time, so each of cmtk's module caches starts cold
as in a CLI invocation and at most two processes exist at once.

``--trace 0`` measures the end-to-end metrics.  It runs whole passes,
each in its own process, until ``--seconds`` of timed work has
accumulated; a pass is never cut, so a run measures at least one.  If
that took fewer than SETUP_SAMPLES processes, processes that only set
up make up the number, so ``setup_s`` always has that many samples.
Each metric is the median over passes (``setup_s``: over processes) of
the pass's own figure.  Times of the timed passes are scaled to the
reference machine defined in perfbench/reference.py, and the unscaled
figures are in the report; ``setup_s`` is as measured.

``--trace 1`` measures the per-layer metrics: one untraced pass, then
one pass with the tracer installed (perfbench/tracer.py).  The ratio of
their scaled wall times is the tracing overhead.  Per-layer times are
scaled like the pass; the tracer takes out its own calibrated per-call
cost, and the report holds the per-layer self times that remain
against the untraced wall time.

Both modes check every output outside the timed region and compare the
work counts of their passes, which must repeat exactly.  The last line
of standard output is the result; the line before it is a report with
the generated inputs, per-pass numbers and machine facts.

``--size tiny`` shrinks every workload for the smoke test
(perfbench/test_smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, every process included
WAITING = "not applicable: no layer queues work or does I/O beyond stdout"


class WorkerError(RuntimeError):
    pass


def _spawn(root, args, mode, deadline):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining < 1:
        raise WorkerError(f"no time left for a {mode} process")
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process exceeded the run limit") from exc
    elapsed = (time.monotonic_ns() - t0) / 1e9
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["t_first_ns"] - t0) / 1e9
    out["process_s"] = elapsed
    return out


def _tail(latencies):
    """(latency, percentile) of the highest percentile with 10 calls beyond it.

    With fewer than 11 calls there is no such percentile; the maximum
    is reported at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def _median_of_medians(passes, key):
    return statistics.median(statistics.median(p[key]) for p in passes)


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _pass_summary(p):
    tail_ns, pct = _tail(p["scaled_latencies_ns"])
    return {
        "wall_s": p["wall_ns"] / 1e9,
        "scaled_wall_s": p["scaled_wall_ns"] / 1e9,
        "reference_median_ms": statistics.median(p["reference_ns"]) / 1e6,
        "setup_s": p["setup_s"],
        "items": p["items"],
        "calls": p["attempted"],
        "failed": p["failed"],
        "failures": p["failures"][:5],
        "rss_mb": p["rss_kb"] / 1024,
        "tail_ms": tail_ns / 1e6,
        "tail_percentile": pct,
        "counts": p["counts"],
    }


def end_to_end(root, args, deadline):
    passes = []
    timed_s = 0.0
    while True:
        p = _spawn(root, args, "pass", deadline)
        passes.append(p)
        timed_s += p["wall_ns"] / 1e9
        if timed_s >= args.seconds:
            break
        if time.monotonic() + 2 * p["process_s"] > deadline:
            break
    setups = passes + [
        _spawn(root, args, "setup", deadline) for _ in range(SETUP_SAMPLES - len(passes))
    ]

    def rate(wall_key):
        return statistics.median(p["items"] / (p[wall_key] / 1e9) for p in passes)

    tails = [_tail(p["scaled_latencies_ns"]) for p in passes]
    values = {
        "items_per_s": (rate("scaled_wall_ns"), "1/s"),
        "op_p50_ms": (_median_of_medians(passes, "scaled_latencies_ns") / 1e6, "ms"),
        "op_tail_ms": (statistics.median(t[0] for t in tails) / 1e6, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    raw = {
        "items_per_s": rate("wall_ns"),
        "op_p50_ms": _median_of_medians(passes, "latencies_ns") / 1e6,
        "op_tail_ms": statistics.median(_tail(p["latencies_ns"])[0] for p in passes) / 1e6,
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "passes": [_pass_summary(p) for p in passes],
        "unscaled_metrics": raw,
        "setup_samples_s": [p["setup_s"] for p in setups],
        "op_calls": sum(len(p["latencies_ns"]) for p in passes),
        "op_tail_percentiles": [t[1] for t in tails],
        "op_tail_calls_beyond": 10,
        "fail_ratio": failed / attempted if attempted else 0.0,
    }
    return passes, values, attempted, failed, report


def per_layer(root, args, deadline):
    base = _spawn(root, args, "pass", deadline)
    traced = _spawn(root, args, "trace", deadline)
    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    details = traced["trace_details"]
    untraced_s = base["scaled_wall_ns"] / 1e9
    traced_s = traced["scaled_wall_ns"] / 1e9
    overhead_s = traced_s - untraced_s
    layers["trace.overhead_ratio"] = (overhead_s / untraced_s, "ratio")
    # self times with the calibrated wrapper cost taken out; they add up to
    # the traced wall minus the estimated overhead, so the residual below is
    # how far the calibration misses the overhead actually measured
    self_s = {k[: -len(".self_s")]: v for k, (v, _u) in layers.items() if k.endswith(".self_s")}
    residual_s = sum(self_s.values()) - untraced_s
    report = {
        "passes": [_pass_summary(base), _pass_summary(traced)],
        "spans_file": traced["spans_file"],
        "span_count": traced["span_count"],
        "trace_details": details,
        "accounting": {
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "measured_overhead_s": overhead_s,
            "estimated_overhead_s": details["estimated_overhead_s"],
            "wrapper_cost_ns": details["wrapper_cost_ns"],
            "self_s_by_layer": self_s,
            "sum_of_self_s": sum(self_s.values()),
            "residual_s": residual_s,
            "residual_share": residual_s / untraced_s,
            "dominant_self_layer": max(self_s, key=self_s.get),
            "point_count_share": layers["quadfield.point_count_s"][0] / untraced_s,
        },
    }
    passes = [base, traced]
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return passes, layers, attempted, failed, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "cmtk" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no cmtk sources under {root / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        sys.stderr.write(f"run.py: unknown workload {args.workload!r}\n")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    machine = _machine()

    try:
        measure = per_layer if args.trace else end_to_end
        passes, values, attempted, failed, report = measure(root, args, deadline)
    except WorkerError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1

    counts = [p["counts"] for p in passes]
    repeat = all(c == counts[0] for c in counts)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value, unit = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
    report.update(
        {
            "workload": args.workload,
            "why": why[args.workload],
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "machine": machine,
            "run_s": time.monotonic() - started,
            "counts_repeat": repeat,
            "missing_metrics": missing,
            "waiting": WAITING,
            "inputs": passes[0]["inputs"],
        }
    )
    if args.trace:
        report["layer_metrics_not_reported"] = sorted(set(values) - set(metrics))
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0 and repeat and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
