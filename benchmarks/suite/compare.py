"""Compare two suite result files: ``compare.py A.json B.json``.

One row per workload and end-to-end metric: the median of each side's
runs, the ratio B/A (A is the base), the metric's bound from
BENCHMARK.json, and a verdict:

``same``        B is within the bound of A
``better``      B beats A by more than the bound
``worse``       B trails A by more than the bound
``unresolved``  either side's own run-to-run spread exceeds the bound, so
                the file cannot tell a change from noise

A side's spread is the distance between the quartiles of its runs as a
share of their median (``run.py --repeat N`` makes N runs); a side with a
single run falls back to the spread between that run's slices.  A failed
reference check on B that A did not have is always ``worse``.  Exits 1 if
any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import load_declaration


def side_summary(runs: Sequence[Dict[str, Any]], metric: str) -> Optional[Tuple[float, float]]:
    """(median, spread) of one metric over one side's runs."""
    entries = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    if not entries:
        return None
    values = [entry["value"] for entry in entries]
    median = statistics.median(values)
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
        spread = (high - low) / median if median else 0.0
    else:
        spread = entries[0].get("spread") or 0.0
    return median, spread


def verdict(a: float, b: float, better: str, bound: float,
            spreads: Tuple[float, float]) -> str:
    if max(spreads) > bound:
        return "unresolved"
    gain = (b - a) / a if a else 0.0
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[Any, ...]]:
    rows: List[Tuple[Any, ...]] = []
    declared = load_declaration()["end_to_end"]
    for name, a_runs in a["workloads"].items():
        b_runs = b["workloads"].get(name)
        if not a_runs or not b_runs:
            continue
        for metric in declared:
            left = side_summary(a_runs, metric["name"])
            right = side_summary(b_runs, metric["name"])
            if left is None or right is None:
                continue
            rows.append((
                name, metric["name"], metric["unit"], left[0], right[0],
                right[0] / left[0] if left[0] else float("nan"),
                metric["bound"],
                verdict(left[0], right[0], metric["better"], metric["bound"],
                        (left[1], right[1])),
            ))
        shares = [
            statistics.median(run["failed_share"] for run in runs)
            for runs in (a_runs, b_runs)
        ]
        rows.append((
            name, "failed_share", "ratio", shares[0], shares[1],
            float("nan"), 0.0, "worse" if shares[1] > shares[0] else "same",
        ))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    sides = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    rows = compare(*sides)
    print(f"{'workload':<13} {'metric':<15} {'unit':<7} {'A median':>14} "
          f"{'B median':>14} {'B/A':>7} {'bound':>6}  verdict")
    for name, metric, unit, a, b, ratio, bound, result in rows:
        print(f"{name:<13} {metric:<15} {unit:<7} {a:>14.4f} {b:>14.4f} "
              f"{ratio:>7.3f} {bound:>6.2f}  {result}")
    worse = [row for row in rows if row[-1] == "worse"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
