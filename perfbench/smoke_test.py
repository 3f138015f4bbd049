#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

Usage (from the repository root):
    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny duration (--tiny), once
untraced and once traced, and asserts that the result is correct and that
every metric BENCHMARK.json names for that mode is present, finite and carries
the declared unit. Then runs the program's digest self-test, which feeds the
correctness gate a deliberately mismatched pair of results and must see it
rejected. Exits nonzero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)


def check_metrics(label, result, expected):
    assert result["correct"] is True, f"{label}: not correct: {result}"
    assert result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}"
    got = result["metrics"]
    assert set(got) == set(expected), (
        f"{label}: missing {sorted(set(expected) - set(got))}, "
        f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} = {value!r}"
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']!r} != {unit!r}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace, expected in modes.items():
            label = f"{w['name']} --trace {trace}"
            p = run("--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
            assert p.returncode == 0, f"{label}: exit {p.returncode}"
            check_metrics(label, json.loads(p.stdout.strip().splitlines()[-1]), expected)
            print(f"ok  {label}: {len(expected)} metrics", flush=True)

    p = run("--self-test", "digest")
    assert p.returncode == 0 and "mismatch rejected=1" in p.stdout, \
        f"digest self-test: exit {p.returncode}: {p.stdout}"
    print("ok  digest gate rejects a mismatched pair and accepts a rerun")

    p = run("--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0, "unknown workload must fail"
    print("ok  unknown workload exits nonzero")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
