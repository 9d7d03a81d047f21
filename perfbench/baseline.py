"""Measure the baseline that perfbench/baseline.json records.

Run from the root of a repository checkout, with nothing else running:

    python3 perfbench/baseline.py [--runs 10] [--seconds 20] [--out perfbench/baseline.json]

For every workload it makes two traced runs with seed 1 and two sets of
untraced runs (seeds 1..runs, then runs+1..2*runs), one after the other, and
writes every metric's median, quartiles and spread (the interquartile range
over the median, as statistics.quantiles(values, n=4) gives the quartiles),
the change of each median from the first set to the second, the traced
metrics and the tracing overhead.  One set of runs per workload takes about
runs x (seconds + 10) seconds.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    print(workload, seed, trace, proc.stdout.strip().splitlines()[-1][:200], file=sys.stderr, flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results):
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
    return out


def runs_of(results, seeds):
    return {
        "seeds": seeds,
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "end_to_end": summary(results),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    workloads = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        traced = [bench(name, 1, args.seconds, 1) for _ in range(2)]
        sets = []
        for k in range(2):
            seeds = list(range(1 + k * args.runs, 1 + (k + 1) * args.runs))
            sets.append(runs_of([bench(name, s, args.seconds, 0) for s in seeds], seeds))
        for name_, m in sets[1]["end_to_end"].items():
            first = sets[0]["end_to_end"][name_]["median"]
            m["change_vs_first"] = (m["median"] - first) / first if first else 0.0
        counts = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith((".calls", ".constructed", ".evals", ".restarts"))} for t in traced]  # fmt: skip
        untraced = sets[0]["end_to_end"]["adj_ops_per_s"]["median"]
        traced_adj = statistics.median(t["metrics"]["bench.adj_ops_per_s"]["value"] for t in traced)
        workloads[name] = {
            "why": wl["why"],
            "failed_share_median": statistics.median(
                f / a for f, a in zip(sets[0]["failed"], sets[0]["attempted"])
            ),
            "first_set": sets[0],
            "second_set": sets[1],
            "traced_runs": {
                "seed": 1,
                "correct": all(t["correct"] for t in traced),
                "attempted": [t["attempted"] for t in traced],
                "failed": [t["failed"] for t in traced],
                "counts_repeat": counts[0] == counts[1],
                "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            },
            "tracing_overhead": {
                "traced_adj_ops_per_s": traced_adj,
                "untraced_adj_ops_per_s_median": untraced,
                "share": 1.0 - traced_adj / untraced,
            },
        }
    baseline = {
        "about": f"Every metric on every workload, measured at commit {commit.stdout.strip()}.",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "shape": (
            "closed loop, one client, one single-threaded process (BLAS pools pinned to 1 thread); "
            "timings are taken against a reference block of fixed work, see perfbench/README.md"
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0|1",
        "run_seconds": args.seconds,
        "spread": "IQR / median over the runs, as statistics.quantiles(values, n=4) gives the quartiles",
        "deterministic_counts": (
            "smp.evals, smp.restarts, nmr.*.calls, permutations.classify_cyclic.calls, "
            "algorithm.run_quantum.calls and permutations.Permutation.constructed repeat exactly "
            "for a fixed --seed and --seconds; cite them as counts"
        ),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
