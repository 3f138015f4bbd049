#!/usr/bin/env python3
"""Checks tools/check_bench_regression.py against the fixtures in
tests/data/bench_regression: a passing pair, a pair 20% slower than the
15% gate allows, and a pair whose units disagree.

Usage: check_bench_regression_test.py <check_bench_regression.py> <fixture dir>
"""

import os
import subprocess
import sys


def run(script, fixtures, candidate):
    proc = subprocess.run(
        [sys.executable, script, os.path.join(fixtures, "baseline.json"),
         os.path.join(fixtures, candidate)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    script, fixtures = sys.argv[1], sys.argv[2]
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    code, out, err = run(script, fixtures, "candidate_ok.json")
    expect(code == 0, f"passing pair exited {code}:\n{out}{err}")
    expect("[ok] BM_EndToEndCell: 100.0 -> 105.0 ms" in out,
           f"passing pair did not print the ms unit:\n{out}")
    expect("[ok] BM_SchedulerChurn/0: 25.0 -> 25.0 ns" in out,
           f"passing pair did not print the ns unit:\n{out}")

    code, out, err = run(script, fixtures, "candidate_slow.json")
    expect(code == 1, f"20%-slower pair exited {code}, want 1:\n{out}{err}")
    expect("[FAIL] BM_EndToEndCell: 100.0 -> 120.0 ms (+20.0%)" in out,
           f"20%-slower pair did not flag BM_EndToEndCell:\n{out}")

    code, out, err = run(script, fixtures, "candidate_units.json")
    expect(code == 2, f"unit-mismatch pair exited {code}, want 2:\n{out}{err}")
    expect("BM_EndToEndCell: baseline reports ms, candidate reports us" in err,
           f"unit-mismatch pair did not name the benchmark:\n{err}")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("check_bench_regression: all cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
