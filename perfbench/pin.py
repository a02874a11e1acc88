"""Regenerate ``pins.json``: the pinned report hashes and the seed-0 counts.

    python3 perfbench/pin.py

Runs every workload untraced on each pinned CLI seed (once if it takes no
seed) and records the sha256 of each report's ``results`` object, then runs
each workload traced on seed 0 and records its call counts and counters.
Run it only when a change is meant to alter a report; the benchmark then
checks every later run against the new pins.
"""
from __future__ import annotations

import json
import sys
import time

import run

COUNT_FIELDS = ("calls", "true", "rows", "cols", "duality_checked", "terms_out", "tuples")


def counts(trace: dict) -> dict[str, int]:
    """Every exact count of a traced run, as "<span>.<field>"."""
    return {f"{span}.{field}": rec[field]
            for span, rec in sorted(trace["spans"].items()) if span != run.ROOT_SPAN
            for field in COUNT_FIELDS if field in rec}


def main() -> int:
    deadline = time.monotonic() + 3600.0
    hashes, baseline = {}, {}
    for workload in run.WORKLOADS:
        seeds = range(run.PINNED_SEEDS) if run.cli_seed(workload, 0) is not None else [0]
        hashes[workload] = {}
        for seed in seeds:
            r = run.spawn([sys.executable, "-m", "burghelea.cli", *run.command(workload, seed)],
                          deadline)
            if r["exit"] != 0:
                print(f"{workload} seed {seed}: exit {r['exit']}\n{r['err']}", file=sys.stderr)
                return 1
            hashes[workload][str(seed)] = run.results_hash(r["out"])
            print(f"{workload} seed {seed}: {hashes[workload][str(seed)]}", flush=True)
        traced = run.spawn([sys.executable, str(run.HERE / "tracer.py"),
                            *run.command(workload, 0)], deadline)
        trace = json.loads(traced["out"])
        if run.results_hash(trace["report"]) != hashes[workload]["0"]:
            print(f"{workload}: traced report differs from untraced", file=sys.stderr)
            return 1
        baseline[workload] = counts(trace)
    pins = {"results_sha256": hashes, "baseline_counts_seed0": baseline}
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
