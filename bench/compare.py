"""Compare two benchmark result files, parent against change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run_bench.py --out`` appended, one per run.
Records of one workload pair up in file order, so run the two sides in
alternating pairs (see bench/README.md). Untraced records only. For every
workload and end-to-end metric this prints each side's quartiles, the share
of pairs the change won (ties count for neither) and a verdict:

- improved: the change won at least 9 of 10 pairs and the medians differ,
  in the better direction, by more than the parent's interquartile range;
- unresolved: either side's interquartile range exceeds the metric's bound,
  unless every change run reads better than every parent run;
- regressed: the change median is worse than the parent's by more than the bound;
- no worse: otherwise.

It also reports whether both sides wrote byte-identical ``metrics.csv`` files
for every seed they share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if win_share >= 0.9 and gain > p3 - p1:
        return "improved", win_share
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", win_share
    if -gain > bound * abs(pm):
        return "regressed", win_share
    return "no worse", win_share


def hashes(records: list[dict]) -> dict[int, set[str]]:
    seen: dict[int, set[str]] = {}
    for record in records:
        seen.setdefault(record["seed"], set()).update(
            exp["metrics_sha256"] for exp in record["experiments"] if "metrics_sha256" in exp)
    return seen


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[str]:
    lines = []
    for workload in sorted(set(parent) & set(change)):
        old, new = parent[workload], change[workload]
        lines.append(f"== {workload}: {len(old)} parent runs, {len(new)} change runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in old if name in r["result"]["metrics"]]
            c = [r["result"]["metrics"][name]["value"] for r in new if name in r["result"]["metrics"]]
            if not p or not c:
                lines.append(f"  {name:18s} missing on one side")
                continue
            call, wins = verdict(p, c, metric["better"], metric["bound"])
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            lines.append(f"  {name:18s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                         f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {metric['unit']}  "
                         f"wins {wins:.0%}  bound {metric['bound']:.0%}  {call}")
        old_hashes, new_hashes = hashes(old), hashes(new)
        shared = sorted(set(old_hashes) & set(new_hashes))
        differ = [seed for seed in shared if old_hashes[seed] != new_hashes[seed]]
        lines.append(f"  metrics.csv: {len(shared) - len(differ)} of {len(shared)} shared seeds "
                     f"byte-identical" + (f"; differ on seeds {differ}" if differ else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
