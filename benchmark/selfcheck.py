#!/usr/bin/env python3
"""Repeatability check of the benchmark against its own bounds.

Runs the command of BENCHMARK.json in two sets of N runs per workload
(every run of a set with another --seed, the two sets with the same
seeds), then prints, per workload x end-to-end metric: both medians,
their relative difference, each set's spread (interquartile range over
median, as the driver computes it) and the bound. Exits non-zero when a
spread (setup_s excepted) or a worsening of the second median exceeds
the bound.

    python3 benchmark/selfcheck.py [--runs 10] [--workload NAME ...] [--base-seed 1]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--base-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [args.base_seed + k for k in range(args.runs)]

    failed = False
    total_wall = 0.0
    print(f"{'workload':<18} {'metric':<10} {'median A':>11} {'median B':>11} "
          f"{'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in workloads:
        sets = []
        for _ in range(2):
            runs = []
            for seed in seeds:
                metrics, wall = run_once(spec, workload, seed)
                total_wall += wall
                runs.append(metrics)
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a  # every end-to-end metric is lower-is-better
            spreads = [spread(a), spread(b)]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            failed |= not ok
            print(f"{workload:<18} {name:<10} {med_a:>11.4f} {med_b:>11.4f} "
                  f"{worse:>+8.2%} {spreads[0]:>9.2%} {spreads[1]:>9.2%} {bound:>6.0%}  "
                  f"{'ok' if ok else 'PAST BOUND'}", flush=True)
    runs_made = 2 * len(seeds) * len(workloads)
    print(f"{runs_made} runs, {total_wall:.0f} s wall, {total_wall / runs_made:.1f} s per run")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
