#!/usr/bin/env python3
"""Compare two sets of perfbench results.

Usage:
    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by perfbench/run.py (files, or
directories holding them). Records are grouped by workload and by
traced/untraced run; for each metric the script prints both medians and
the change of NEW against BASE. It refuses to compare (exit 2) when the
two sides ran on different SIMD tiers: a tier is part of the experiment,
not noise (docs/BENCHMARKS.md).
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def group(records: list[dict]) -> dict:
    groups: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        prov = record["provenance"]
        key = (prov["workload"], "traced" if prov["trace"] else "untraced")
        for name, metric in record["result"]["metrics"].items():
            groups[key][(name, metric["unit"])].append(metric["value"])
    return groups


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(sys.argv[1])), load(Path(sys.argv[2]))
    tiers = {r["provenance"]["simd_tier"] for r in base + new}
    if len(tiers) != 1:
        print(f"compare: refusing to compare runs on different SIMD tiers "
              f"{sorted(tiers)}", file=sys.stderr)
        return 2
    tier = tiers.pop()
    base_groups, new_groups = group(base), group(new)
    for key in sorted(set(base_groups) & set(new_groups)):
        print(f"{key[0]} ({key[1]}, SIMD tier {tier})")
        for metric in sorted(base_groups[key]):
            if metric not in new_groups[key]:
                continue
            b_values = base_groups[key][metric]
            n_values = new_groups[key][metric]
            b, n = statistics.median(b_values), statistics.median(n_values)
            change = f"{(n - b) / b:+.1%}" if b else "n/a"
            print(f"  {metric[0]:<26} {b:>14.6g} -> {n:<14.6g} "
                  f"{metric[1]:<7} {change:>8}  "
                  f"(runs {len(b_values)} / {len(n_values)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
