#!/usr/bin/env python3
"""Gate a fresh micro-benchmark run against the checked-in baseline.

Compares per-benchmark cpu_time in a candidate BENCH_micro.json (as written
by tools/run_micro_bench.sh) against the baseline copy under results/ and
fails if any benchmark slowed by more than the threshold (default 15%).

Raw wall times on a CI runner are not comparable to the laptop that produced
the baseline, so --normalize-by (default: BM_SchedulerChurn/0, the smallest
pure-engine benchmark) rescales the candidate by the ratio of that anchor's
times first: what is actually gated is each benchmark's slowdown *relative to
the anchor's*, which cancels the host-speed difference. Pass
--normalize-by '' to compare raw times (same-host A/B runs).

Benchmarks present on only one side are reported but never fail the gate, so
adding a benchmark does not require regenerating the baseline in the same
commit.

Times are printed in each benchmark's own time_unit (ns, us, ms or s). A
benchmark whose baseline and candidate report different units cannot be
compared; the script then exits 2 naming it, instead of gating a ratio of
mismatched numbers.

Usage:
  tools/check_bench_regression.py results/BENCH_micro.json /tmp/BENCH_micro.json
  tools/check_bench_regression.py baseline.json candidate.json --threshold 0.10
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        out[b["name"]] = (float(b["cpu_time"]), b.get("time_unit", "ns"))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional slowdown (default 0.15)")
    ap.add_argument("--normalize-by", default="BM_SchedulerChurn/0",
                    help="anchor benchmark for cross-host calibration "
                         "('' = compare raw times)")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    mismatched = [(n, base[n][1], cand[n][1]) for n in sorted(base)
                  if n in cand and base[n][1] != cand[n][1]]
    if mismatched:
        for name, bu, cu in mismatched:
            print(f"error: {name}: baseline reports {bu}, candidate reports {cu}",
                  file=sys.stderr)
        print("time units differ; rerun the candidate with the baseline's units",
              file=sys.stderr)
        return 2

    scale = 1.0
    if args.normalize_by:
        if args.normalize_by not in base or args.normalize_by not in cand:
            # A filtered run (e.g. a smoke job gating only its own benchmark
            # family) legitimately omits the anchor; fall back to raw times
            # with a notice rather than rejecting the comparison outright.
            print(f"notice: anchor {args.normalize_by!r} missing from "
                  f"{'baseline' if args.normalize_by not in base else 'candidate'}"
                  f"; comparing raw times (no host calibration)")
        else:
            scale = base[args.normalize_by][0] / cand[args.normalize_by][0]
            print(f"normalizing by {args.normalize_by}: candidate x {scale:.3f}")

    failures = []
    for name in sorted(base):
        if name not in cand:
            print(f"  [only-baseline] {name}")
            continue
        base_t, unit = base[name]
        adjusted = cand[name][0] * scale
        ratio = adjusted / base_t if base_t > 0 else 1.0
        marker = "FAIL" if ratio > 1 + args.threshold else "ok"
        print(f"  [{marker}] {name}: {base_t:.1f} -> {adjusted:.1f} {unit} "
              f"({(ratio - 1) * 100:+.1f}%)")
        if ratio > 1 + args.threshold:
            failures.append((name, ratio))
    for name in sorted(set(cand) - set(base)):
        print(f"  [only-candidate] {name}")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.threshold * 100:.0f}%:")
        for name, ratio in failures:
            print(f"  {name}: {(ratio - 1) * 100:+.1f}%")
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
