#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload several times,
interleaved, each run with its own seed, and print for each metric its
median, quartiles, (Q3 - Q1) / median and max / min. With --sets 2 it
makes a second set of runs with new seeds right after the first, and
prints how far each median moved from the first set to the second.

    python3 perfbench/steady.py [--runs 10] [--seconds 16] [--trace 0|1]
        [--seed 1] [--sets 1] [--workloads serve-hot,plan-cold,...]

Run from the repository root. The bounds in BENCHMARK.json are set from
this output; the quartiles are Python's statistics.quantiles(n=4). A
spread or a move larger than the metric's bound is marked "over".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def one_set(workloads, first_seed, args):
    results = {w: [] for w in workloads}
    walls = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            result, wall = run_once(w, first_seed + r, args.seconds, args.trace)
            results[w].append(result)
            walls[w].append(wall)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"run {r + 1}/{args.runs} {w} seed {first_seed + r}: {wall:.1f} s wall; {values}",
                  file=sys.stderr, flush=True)
    return results, walls


def summary(workloads, results, walls, bound):
    medians = {}
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: failed share {shares}, wall per run median {statistics.median(walls[w]):.1f} s, "
              f"max {max(walls[w]):.1f} s")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            medians[(w, name)] = med
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            lo, hi = min(vals), max(vals)
            ratio = hi / lo if lo > 0 else float("nan")
            unit = runs[0]["metrics"][name]["unit"]
            over = "  over" if name in bound and spread > bound[name] else ""
            print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {ratio:>8.3f}"
                  f"  {unit}{over}")
    return medians


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="serve-hot,plan-cold,simulate-cold,paper-sweep")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bound = bounds() if args.trace == 0 else {}
    medians = []
    for s in range(args.sets):
        first_seed = args.seed + s * args.runs
        results, walls = one_set(workloads, first_seed, args)
        print(f"\nset {s + 1}: {args.runs} runs per workload, {args.seconds} s each, trace "
              f"{args.trace}, seeds {first_seed}..{first_seed + args.runs - 1}")
        medians.append(summary(workloads, results, walls, bound))
    if len(medians) == 2:
        print("\nmedian of set 2 / median of set 1 - 1 (> 0 is higher in set 2)")
        names = [n for (w, n) in medians[0] if w == workloads[0]]
        print(f"  {'metric':<16}" + "".join(f" {w:>14}" for w in workloads))
        for name in names:
            cells = []
            for w in workloads:
                a, b = medians[0][(w, name)], medians[1][(w, name)]
                move = b / a - 1 if a else 0.0
                over = "*" if name in bound and abs(move) > bound[name] else " "
                cells.append(f" {move:>+13.3f}{over}")
            print(f"  {name:<16}" + "".join(cells))
        print("  * a move larger than the metric's bound")


if __name__ == "__main__":
    main()
