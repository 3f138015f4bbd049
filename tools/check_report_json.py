#!/usr/bin/env python3
"""Validate an `elephant report --json` document (elephant-report-v2).

CI's report-smoke gate: the merged sweep report must carry the schema tag,
every section the renderer promises, and internally consistent accounting —
above all, per-worker attributed cell counts must sum to the manifest's
completed-cell count (the invariant `elephant report` is built around).

Usage:
  tools/check_report_json.py report.json
  tools/check_report_json.py report.json --min-workers 2 --min-completed 1
"""

import argparse
import json
import sys

NUMBER = (int, float)


def fail(msg):
    print(f"error: {msg}")
    return 1


def check_fields(obj, fields, where, errors):
    for name, kind in fields:
        if name not in obj:
            errors.append(f"{where}: missing key {name!r}")
        elif not isinstance(obj[name], kind):
            errors.append(f"{where}: {name!r} has type {type(obj[name]).__name__}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("report")
    ap.add_argument("--min-workers", type=int, default=1,
                    help="minimum distinct workers the report must attribute")
    ap.add_argument("--min-completed", type=int, default=1,
                    help="minimum completed cells the sweep must show")
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot parse {args.report}: {e}")

    if doc.get("schema") != "elephant-report-v2":
        return fail(f"schema tag is {doc.get('schema')!r}, want 'elephant-report-v2'")
    if "cache" in doc:
        return fail("unexpected 'cache' block: the sweep journal is the only result store")

    errors = []
    check_fields(doc, [("manifest", str), ("cells", dict), ("workers", list), ("phases", list),
                       ("slowest_cells", list), ("episode_cells", list)],
                 "report", errors)
    if errors:
        for e in errors:
            print(f"error: {e}")
        return 1

    cells = doc["cells"]
    check_fields(cells, [("total", NUMBER), ("completed", NUMBER),
                         ("failed", NUMBER), ("claims", NUMBER),
                         ("steals", NUMBER), ("wall_s_total", NUMBER)],
                 "cells", errors)

    for i, w in enumerate(doc["workers"]):
        check_fields(w, [("id", str), ("cells", NUMBER), ("claims", NUMBER),
                         ("steals", NUMBER), ("wall_s", NUMBER),
                         ("elapsed_s", NUMBER), ("utilization", NUMBER)],
                     f"workers[{i}]", errors)
    for i, p in enumerate(doc["phases"]):
        check_fields(p, [("name", str), ("count", NUMBER), ("total_s", NUMBER),
                         ("mean_s", NUMBER)], f"phases[{i}]", errors)
    for section in ("slowest_cells", "episode_cells"):
        for i, row in enumerate(doc[section]):
            check_fields(row, [("id", str), ("worker", str), ("status", str),
                               ("wall_s", NUMBER), ("episodes", NUMBER),
                               ("worst_jain", NUMBER), ("victim", NUMBER),
                               ("cause", str)], f"{section}[{i}]", errors)
    if errors:
        for e in errors:
            print(f"error: {e}")
        return 1

    # Accounting invariants.
    if cells["completed"] + cells["failed"] != cells["total"]:
        return fail(f"completed ({cells['completed']}) + failed ({cells['failed']}) "
                    f"!= total ({cells['total']})")
    attributed = sum(w["cells"] for w in doc["workers"])
    if attributed != cells["completed"]:
        return fail(f"sum of per-worker cells ({attributed}) != completed "
                    f"({cells['completed']})")
    for row in doc["episode_cells"]:
        if not row["cause"]:
            return fail(f"episode cell {row['id']} has an empty cause tag")
        if not 0.0 <= row["worst_jain"] <= 1.0:
            return fail(f"episode cell {row['id']} worst_jain {row['worst_jain']} "
                        f"outside [0, 1]")

    if cells["completed"] < args.min_completed:
        return fail(f"only {cells['completed']} completed cells, "
                    f"want >= {args.min_completed}")
    if len(doc["workers"]) < args.min_workers:
        return fail(f"only {len(doc['workers'])} workers attributed, "
                    f"want >= {args.min_workers}")

    print(f"ok: {args.report}: {cells['completed']} cells over "
          f"{len(doc['workers'])} workers, {cells['steals']} steals, "
          f"{len(doc['episode_cells'])} episode cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
