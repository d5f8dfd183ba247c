"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py [--seeds 10] [--sets 2] [--first-seed 1]
        [--workloads golden countermodel sweeps] [--trace] [--write]

For every workload it runs `run.py --trace 0` once per seed, one after
another, and prints each end-to-end metric's median, quartiles and
spread (quartile distance over median) next to the metric's bound in
BENCHMARK.json.  It does this --sets times, each set on the next --seeds
seeds, and prints by how much each later set's median is worse than the
first set's, next to the bound.  With --trace it adds one traced run per
workload.  With --write it stores every set, the agreement and the traced
runs as perfbench/baseline.json, the reference numbers a later change is
compared with.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; its result plus its wall time."""
    start = time.perf_counter()
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{out.stdout}")
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_by(first: float, later: float, better: str) -> float:
    """How much `later` is worse than `first`, as a share of `first`
    (negative when it is better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_set(names, seeds, spec) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result: dict = {"seeds": list(seeds), "workloads": {}}
    for workload in names:
        runs = [bench(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry: dict = {"end_to_end": {}, "run_wall_s": [r["wall_s"] for r in runs]}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = s = summarise(values)
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  <-- above bound/3"
            print(
                f"seeds {seeds[0]}-{seeds[-1]} {workload:13s} {metric:14s} "
                f"median {s['median']:.5g} spread {s['spread']:.3f} "
                f"bound {bounds[metric]}{flag}",
                flush=True,
            )
        result["workloads"][workload] = entry
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "sets": [],
        "agreement": {},
        "traced": {},
    }
    for k in range(args.sets):
        first = args.first_seed + k * args.seeds
        seeds = range(first, first + args.seeds)
        summary["sets"].append(run_set(names, seeds, spec))
    for later in summary["sets"][1:]:
        for workload in names:
            agreement = summary["agreement"].setdefault(workload, {})
            for m in spec["end_to_end"]:
                a = summary["sets"][0]["workloads"][workload]["end_to_end"][m["name"]]
                b = later["workloads"][workload]["end_to_end"][m["name"]]
                worse = worse_by(a["median"], b["median"], m["better"])
                row = agreement.setdefault(m["name"], {"bound": m["bound"], "worse_by": []})
                row["worse_by"].append(worse)
                flag = "" if worse <= m["bound"] else "  <-- beyond bound"
                print(
                    f"{workload:13s} {m['name']:14s} later set worse by {worse:+.3f} "
                    f"bound {m['bound']}{flag}",
                    flush=True,
                )
    if args.trace:
        for workload in names:
            traced = bench(workload, args.first_seed, spec["run_seconds"], 1)
            per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
            summary["traced"][workload] = {
                "seed": args.first_seed,
                "per_layer": per_layer,
                "run_wall_s": traced["wall_s"],
            }
            print(f"{workload:13s} trace.overhead {per_layer['trace.overhead']:.3f}", flush=True)
    if args.write:
        path = HERE / "baseline.json"
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")

if __name__ == "__main__":
    main()
