"""Steadiness check: run the benchmark on many seeds and report its spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads hh-d4,fill-f2]

For each workload, makes two sets of runs of ``run.py``, one per seed, one
process at a time, and prints for every end-to-end metric the median, the
quartiles and the spread (third minus first quartile, as a share of the
median) next to the metric's bound from ``BENCHMARK.json``.  A spread of at
most a third of the bound is ``steady``; above the bound is ``TOO WIDE`` and
fails the check.  ``setup_s`` is exempt from that gate: a set-up probe takes
15 to 25 ms, so a stretch of host contention longer than a run moves all of
a run's probes at once; its spread is printed but not gated.  The second
set's median must not be worse than the first's by more than the bound,
``setup_s`` included.  Then two traced runs per workload on seed 0 must give
identical counts, and their call counts must equal the seed-0 baseline in
``pins.json``.  Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "1")
UNGATED_SPREAD = ("setup_s",)
SETS = 2
TRACED_RUNS = 2


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def check_sets(workload: str, seeds: list[int], sets: int) -> bool:
    ok = True
    first_medians: dict[str, float] = {}
    for s in range(sets):
        results = [bench(workload, seed, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if failed or not all(r["correct"] for r in results):
            ok = False
        print(f"{workload} set {s + 1}: {len(seeds)} runs, {attempted} CLI runs, "
              f"{failed} failed")
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            verdict = "steady" if sp <= bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
            if name in UNGATED_SPREAD:
                verdict += " (not gated)"
            else:
                ok = ok and verdict != "TOO WIDE"
            line = (f"  {name:<12} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                    f"spread {sp:.3f} bound {bound} {verdict}")
            if s == 0:
                first_medians[name] = med
            else:
                drift = med / first_medians[name] - 1
                worse = drift > bound
                ok = ok and not worse
                line += f"  vs set 1 {drift:+.3f}{' WORSE' if worse else ''}"
            print(line, flush=True)
    return ok


def check_counts(workload: str, runs: int) -> bool:
    results = [bench(workload, 0, 1) for _ in range(runs)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
              for r in results]
    ok = all(r["correct"] for r in results)
    same = all(c == counts[0] for c in counts[1:])
    ok = ok and same
    print(f"{workload} traced x{runs}: counts {'identical' if same else 'DIFFER'}")
    baseline = run.read_json(run.PINS)["baseline_counts_seed0"][workload]
    for name in sorted(k for k in baseline.keys() & counts[0].keys() if k.endswith(".calls")):
        if counts[0][name] != baseline[name]:
            ok = False
            print(f"  {name}: {counts[0][name]} (baseline {baseline[name]}) DIFFERS")
    for r in results:
        m = r["metrics"]
        print(f"  traced wall {m['trace.wall_s']['value']:.3f} s, overhead "
              f"{m['trace.overhead_s']['value']:.3f} s, other.self_s "
              f"{m['other.self_s']['value']:.3f} s", flush=True)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        ok = check_sets(workload, parse_seeds(args.seeds), SETS) and ok
        ok = check_counts(workload, TRACED_RUNS) and ok
    print("steadiness check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
