"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once untraced and once traced on seed 0: both reports
must match the pinned hash, the span accounting must close, and each layer
the workload is meant to exercise must have been called.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

EXERCISED = {
    "hh-d4": ["linalg.insert", "groups.mul", "groups.inv", "groups.check_element",
              "hochschild.basis", "hochschild.boundary"],
    "fill-f2": ["lp.solve", "dehn.truncation", "dehn.columns", "norms.norm",
                "metric.ball", "metric.length", "groups.mul"],
    "dehn-octahedron": ["linalg.contains", "lp.solve", "dehn.enumerate", "dehn.columns"],
    "identities-f2xz": ["groups.mul", "groups.inv", "groups.check_element",
                        "metric.retract", "metric.section", "metric.length", "metric.ball",
                        "metric.conjugacy_class", "chains.linear_extend", "chains.add",
                        "hochschild.pi_h"],
}
ABSENT = {
    "hh-d4": ["lp.solve"],
    "identities-f2xz": ["lp.solve", "linalg.insert", "linalg.contains"],
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_matches_untraced_and_calls_each_layer(workload):
    deadline = time.monotonic() + 600.0
    plain = run.run_cli(workload, 0, deadline)
    traced = run.run_traced(workload, 0, deadline)
    assert plain["ok"], plain["err"]
    assert traced["ok"], traced["err"]
    assert run.results_hash(traced["trace"]["report"]) == run.results_hash(plain["out"])
    assert run.spans_close(traced["trace"], traced["wall_s"])
    spans = traced["trace"]["spans"]
    for span in EXERCISED[workload]:
        assert spans.get(span, {}).get("calls", 0) > 0, span
    for span in ABSENT.get(workload, []):
        assert spans.get(span, {}).get("calls", 0) == 0, span
    metrics = run.layer_metrics(traced["trace"], traced["wall_s"], plain["wall_s"])
    assert metrics.keys() == run.metric_units("per_layer").keys()
    assert metrics["other.self_s"] >= 0


def test_every_per_layer_metric_names_a_traced_span():
    sys.path.insert(0, str(run.ROOT / "src"))
    spans = {name for _, _, name, _, _ in tracer.targets()}
    derived = {"groups.checks_per_op", "other.self_s", "trace.wall_s",
               "trace.untraced_wall_s", "trace.overhead_s", *run.PER_CALL}
    for name in run.metric_units("per_layer"):
        assert name in derived or name.rsplit(".", 1)[0] in spans, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hh-d4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
