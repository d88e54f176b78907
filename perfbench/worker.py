"""One benchmark process: set up a workload, run one pass, check it.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny \
        --mode setup|pass|trace

run.py starts this script in a fresh interpreter for every sample, so
each of cmtk's module caches starts cold, as in a CLI invocation.  The
process prints one JSON line: the CLOCK_MONOTONIC reading taken when
set-up ends (the parent subtracts its own reading taken before starting
the process to get the set-up time), and for ``pass`` and ``trace`` the
unit-call latencies raw and scaled by the reference kernel
(perfbench/reference.py), the check results and the work counts.
``trace`` also calibrates the tracer's per-call cost, installs the
tracer around the timed pass, which takes reference slices like any
other and has the tracer take them out of its spans, summarises the
per-layer numbers scaled like the pass and writes every span, raw, to
``.bench_out/`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = ap.parse_args(argv)

    import workloads
    from reference import NOMINAL_NS
    from tracer import Tracer, calibrate

    wl = workloads.WORKLOADS[args.workload]
    specs = wl.inputs(args.seed, args.size)
    prepared = [wl.prepare(spec) for spec in specs]
    t_first = time.monotonic_ns()
    if args.mode == "setup":
        print(json.dumps({"t_first_ns": t_first}))
        return 0
    tracer = Tracer() if args.mode == "trace" else None
    outcome = workloads.Outcome(time.perf_counter_ns, tracer)
    ref = outcome.reference
    ref.block()
    if tracer is not None:
        # the wrapper cost in reference-machine ns, from the slices around it
        raw_cost = calibrate()
        ref.block()
        cost_scale = NOMINAL_NS / statistics.fmean(ref.dur)
        ref.on_slice = tracer.pause
        tracer.install()

    start = outcome.clock()
    with ref.sampling():
        wl.run(specs, prepared, outcome)
    wall_ns = outcome.clock() - start - ref.inside_ns
    if tracer is not None:
        tracer.uninstall()
    ref.block()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [end - begin - inside for begin, end, inside in outcome.calls]
    scaled = [
        lat * ref.scale(begin, end) for lat, (begin, end, _) in zip(latencies, outcome.calls)
    ]
    pass_scale = sum(scaled) / sum(latencies) if latencies else 1.0
    failures, items, counts = wl.check(specs, prepared, outcome)
    out = {
        "t_first_ns": t_first,
        "wall_ns": wall_ns,
        "scaled_wall_ns": wall_ns * pass_scale,
        "latencies_ns": latencies,
        "scaled_latencies_ns": scaled,
        "reference_ns": ref.dur,
        "attempted": len(outcome.results),
        "failed": len(failures),  # one message per failed call
        "failures": failures,
        "items": items,
        "rss_kb": rss_kb,
        "counts": counts,
        "inputs": specs,
    }
    if tracer is not None:
        # per-layer times are scaled like the pass: the cost is first put
        # back into this pass's raw ns, and every time scaled at the end
        cost = {k: v * cost_scale / pass_scale for k, v in raw_cost.items()}
        layers = tracer.summary(wall_ns, cost)
        out["layers"] = {k: (v * pass_scale if u == "s" else v, u) for k, (v, u) in layers.items()}
        spans_dir = Path.cwd() / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl"
        tracer.write_spans(path)
        out["trace_details"] = tracer.details(wall_ns, cost, pass_scale)
        out["spans_file"] = str(path.relative_to(Path.cwd()))
        out["span_count"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
