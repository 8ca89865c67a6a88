#!/usr/bin/env python3
"""Repeat one workload and report how steady each metric is.

    python3 servebench/steady.py --workload small_frames --seeds 1,2,3,4,5
    python3 servebench/steady.py --workload video_sessions --seed 7 --runs 5

Runs servebench/run.py once per seed (or --runs times on one seed) and prints,
per metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
A spread below a third of the bound is reported as "steady", below the bound
as "within", above it as "NOISY". With --trace 1 the per-layer metrics are
summarised the same way (they have no bound).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, exit {proc.returncode})")
    # Hypervisor steal during the timed phases: the usual reason for a slow run.
    steal = sum(float(line.split()[-2]) for line in lines
                if line.startswith("phase ") and " host steal " in line)
    # Degraded answers outside the overload phase: SLO admission stepping in
    # where the workload is meant to run undisturbed.
    degraded = sum(int(line.split("degraded ")[1].split()[0]) for line in lines
                   if line.startswith(("phase steady ", "phase saturate ")) and " degraded " in line)
    return json.loads(lines[-1]), steal, degraded


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", help="comma-separated seeds, one run each")
    parser.add_argument("--seed", type=int, default=1, help="seed repeated --runs times")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [args.seed] * args.runs)

    values = {spec["name"]: [] for spec in specs}
    for seed in seeds:
        result, steal, degraded = run_once(args.workload, seed, seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = "  ".join(f"{spec['name']} {result['metrics'][spec['name']]['value']:.4g}"
                          for spec in specs if spec["name"] in result["metrics"])
        print(f"seed {seed}: correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']}  degraded {degraded}  steal {steal:.1f} CPU-s  {shown}",
              flush=True)

    print(f"\n{args.workload}: {len(seeds)} runs of {seconds} s, seeds {seeds}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for spec in specs:
        vals = values.get(spec["name"], [])
        if len(vals) < 2:
            print(f"{spec['name']:34} missing")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
        print(f"{spec['name']:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6} {verdict}")


if __name__ == "__main__":
    main()
