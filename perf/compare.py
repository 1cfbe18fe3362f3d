"""Compare two sets of runs: ``python3 -m perf.compare A.json B.json``.

A and B are ``perf.run --out`` files.  For every end-to-end metric and
workload it prints both medians, the ratio B/A with its base, and one of

* ``within-bound`` — B's median is no worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric, and no better by more than it;
* ``better`` / ``worse`` — beyond the bound;
* ``unresolved`` — the run-to-run spread (distance between the quartiles, as
  a share of the median) of either set is wider than the bound, unless every
  run of one set beats every run of the other.

Exit code 1 if any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """Classify ``change`` against ``base`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    # positive = worse, as a share of the base
    worsening = sign * (change_median - base_median) / base_median if base_median else 0.0
    if max(spread(base), spread(change)) > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        if all(sign * c > sign * b for c in change for b in base):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within-bound"


def compare(base: Dict[str, object], change: Dict[str, object],
            benchmark: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [
                [run["metrics"][name] for run in report["runs"].get(workload, [])]
                for report in (base, change)
            ]
            if not values[0] or not values[1]:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": statistics.median(values[0]),
                    "change": statistics.median(values[1]),
                    "spread": max(spread(values[0]), spread(values[1])),
                    "bound": metric["bound"],
                    "verdict": verdict(values[0], values[1], metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    reports = []
    for path in (args.base, args.change, ROOT / "BENCHMARK.json"):
        with open(path, "r", encoding="utf-8") as handle:
            reports.append(json.load(handle))
    rows = compare(*reports)
    print(
        "%-20s %-13s %14s %14s %9s %8s %7s  %s"
        % ("workload", "metric", "A (base)", "B", "B/A", "spread", "bound", "verdict")
    )
    for row in rows:
        print(
            "%-20s %-13s %14.6g %14.6g %9.4f %7.1f%% %6.1f%%  %s"
            % (
                row["workload"], row["metric"], row["base"], row["change"],
                row["change"] / row["base"] if row["base"] else float("nan"),
                100 * row["spread"], 100 * row["bound"], row["verdict"],
            )
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join("%d %s" % (count, name) for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
