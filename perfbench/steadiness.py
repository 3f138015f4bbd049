#!/usr/bin/env python3
"""Run the benchmark on several seeds and tabulate run-to-run spread.

Usage (from the repository root):
    python3 perfbench/steadiness.py --workload matrix-hibw --runs 10 [--trace 0]

For each end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), min/max, and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. It also prints each seed's
combined digest and exact counts, which must repeat exactly when the same
seeds are run again on the same code.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    exact = [ln for ln in lines if ln.startswith(("digest ", "exact "))]
    first_pass = next(float(ln.split()[3]) for ln in lines if ln.startswith("pass 0 "))
    return result, exact, first_pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    first_passes = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, exact, first_pass = run_once(args.workload, seed, seconds, args.trace)
        first_passes.append(first_pass)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        print(f"seed {seed}: " + " | ".join(exact), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}, {args.runs} runs, {seconds} s each\n")
    print("| metric | median | q1 | q3 | min | max | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {min(v):.6g} | {max(v):.6g} "
              f"| {spread:.4f} | {bound if bound is not None else '-'} |")
    q1, _, q3 = statistics.quantiles(first_passes, n=4)
    med = statistics.median(first_passes)
    print(f"\nfirst pass alone (wall of one pass over every cell, setup+run+teardown): "
          f"median {med:.6g} s, q1 {q1:.6g}, q3 {q3:.6g}, min {min(first_passes):.6g}, "
          f"max {max(first_passes):.6g}, spread {(q3 - q1) / med:.4f}")


if __name__ == "__main__":
    main()
