"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of the checkout.  Checks the result contract of
run.py for every workload in both modes, that traced work counts repeat
exactly between two runs with the same seed, that a wrong expected
digest and a wrong split-prime count are reported as failures, and that
run.py refuses to run without the cmtk sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_contract(workload):
    result, report = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["inputs"] and report["counts_repeat"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_contract(workload, traced):
    result, report = traced[workload]
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert report["spans_file"] and report["span_count"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload, traced):
    first, _ = traced[workload]
    second, _ = _result(_run(workload, 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_wrong_digest_is_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import time

    import workloads

    wl = workloads.Catalogue()
    specs = wl.inputs(0, "tiny")
    prepared = [wl.prepare(s) for s in specs]
    outcome = workloads.Outcome(time.perf_counter_ns)
    wl.run(specs, prepared, outcome)
    failures, items, _ = wl.check(specs, prepared, outcome)
    assert failures == [] and items > 0
    wl.digests = {(s["q"], s["bound"]): "0" * 64 for s in specs}
    failures, _, _ = wl.check(specs, prepared, outcome)
    assert len(failures) == len(specs)
    assert all("digest" in f for f in failures)


def test_wrong_split_count_is_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import time

    import workloads

    wl = workloads.Splitting()
    specs = [s for s in wl.inputs(0, "tiny") if s["kind"] == "split"]
    prepared = [wl.prepare(s) for s in specs]
    outcome = workloads.Outcome(time.perf_counter_ns)
    wl.run(specs, prepared, outcome)
    failures, items, _ = wl.check(specs, prepared, outcome)
    assert failures == [] and items == len(specs)
    # off by one prime: the recount catches it, the wide density window would not
    outcome.results = [(i, {**audit, "exact": audit["exact"] + 1}) for i, audit in outcome.results]
    failures, _, _ = wl.check(specs, prepared, outcome)
    assert len(failures) == len(specs)
    assert all("counted by roots" in f for f in failures)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("forms", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
