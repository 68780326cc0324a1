#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE... --new NEW...

BASE and NEW are result records written by perfbench/run.py (files, or
directories such as .bench_build/results). Records are grouped by workload
and mode; each metric's median on each side is printed with its change and,
for end-to-end metrics, whether the change is worse than the bound in
BENCHMARK.json.

Results measured on different hosts or builds are not comparable: when the
fingerprints of the two sides differ, the differing fields are printed, that
workload is not compared, and the script exits with code 2.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        records += [json.loads(f.read_text()) for f in files]
    return records


def fingerprint_diff(base, new):
    """Fields whose values differ between the two sides' fingerprints."""
    diff = {}
    for side, records in (("base", base), ("new", new)):
        for record in records:
            for key, value in (record.get("fingerprint") or {}).items():
                diff.setdefault(key, {}).setdefault(side, set()).add(
                    json.dumps(value))
    return {k: v for k, v in diff.items()
            if len(v.get("base", set()) | v.get("new", set())) > 1}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("base", nargs="+")
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        key = (workload, trace)
        side_b = [r for r in base if (r["workload"], r["trace"]) == key]
        side_n = [r for r in new if (r["workload"], r["trace"]) == key]
        print(f"== {workload} ({'traced' if trace else 'end-to-end'}): "
              f"{len(side_b)} base run(s), {len(side_n)} new run(s) ==")
        diff = fingerprint_diff(side_b, side_n)
        if diff:
            for field, sides in sorted(diff.items()):
                print(f"  FINGERPRINT DIFFERS {field}: "
                      f"base {sorted(sides.get('base', []))} "
                      f"new {sorted(sides.get('new', []))}")
            print("  not comparable")
            status = 2
            continue
        if not side_b or not side_n:
            continue
        names = sorted(set().union(
            *(r["result"]["metrics"] for r in side_b + side_n)))
        for name in names:
            vb = [r["result"]["metrics"][name]["value"] for r in side_b
                  if name in r["result"]["metrics"]]
            vn = [r["result"]["metrics"][name]["value"] for r in side_n
                  if name in r["result"]["metrics"]]
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            change = (mn - mb) / mb if mb else float("nan")
            meta = declared.get(name, {})
            worse = -change if meta.get("better") == "higher" else change
            verdict = ""
            if "bound" in meta:
                verdict = "REGRESSION" if worse > meta["bound"] else "ok"
                status = status or (1 if verdict == "REGRESSION" else 0)
            print(f"  {name:34s} {mb:14.6g} -> {mn:14.6g} {change:+8.2%} "
                  f"{meta.get('unit', ''):6s} {verdict}")
    sys.exit(status)


if __name__ == "__main__":
    main()
