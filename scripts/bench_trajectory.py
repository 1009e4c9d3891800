#!/usr/bin/env python
"""Consolidate the repo-root ``BENCH_*.json`` artifacts into one markdown page.

CI (and local bench runs) leave headline numbers in ``BENCH_*.json`` files
at the repository root — one JSON object per file, keyed by experiment,
written by :func:`repro.bench.record_bench_fig1`.  This script folds every
such file into a single committed document, ``docs/perf_trajectory.md``,
so the performance trajectory of the engine is reviewable in diffs: when a
PR moves a headline number, the regenerated page shows the delta.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py
    PYTHONPATH=src python scripts/bench_trajectory.py --root . --out docs/perf_trajectory.md

The output is deterministic for a given set of inputs (files and
experiment keys are sorted; no timestamps), so regenerating without a
bench change is a no-op diff.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Tuple

#: Payload keys rendered in their own leading columns (most-telling first).
HEADLINE_KEYS = ("claim", "overhead_pct", "tuples", "seed")
#: heading of the hand-recorded suite section kept across regenerations
SUITE_HEADING = "## Suite medians (benchmarks/suite)"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value):,}"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def load_bench_files(root: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Return ``(basename, records)`` for every readable BENCH_*.json."""
    found = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        if isinstance(data, dict):
            found.append((os.path.basename(path), data))
    return found


def render_markdown(files: List[Tuple[str, Dict[str, Any]]]) -> str:
    lines = [
        "# Performance trajectory",
        "",
        "Headline benchmark numbers consolidated from the repo-root",
        "`BENCH_*.json` artifacts (written by `repro.bench.record_bench_fig1`,",
        "uploaded by CI).  Regenerate with:",
        "",
        "```sh",
        "PYTHONPATH=src python scripts/bench_trajectory.py",
        "```",
        "",
        "Numbers are machine-dependent; what matters in review is the",
        "*relative* movement of a metric within one regeneration, not",
        "absolute throughput across machines.",
        "",
    ]
    if not files:
        lines.append("_No `BENCH_*.json` artifacts found at the repo root._")
        lines.append("")
        return "\n".join(lines)

    for basename, records in files:
        lines.append(f"## {basename}")
        lines.append("")
        lines.append("| Experiment | Claim | Metrics | Seed |")
        lines.append("|---|---|---|---|")
        for key in sorted(records):
            payload = records[key]
            if not isinstance(payload, dict):
                lines.append(f"| {key} | — | {_fmt(payload)} | — |")
                continue
            claim = str(payload.get("claim", "—"))
            seed = _fmt(payload.get("seed", "—"))
            metrics = [
                f"{name}={_fmt(value)}"
                for name, value in sorted(payload.items())
                if name not in ("claim", "seed")
                and isinstance(value, (int, float))
            ]
            lines.append(
                f"| {key} | {claim} | {', '.join(metrics) or '—'} | {seed} |"
            )
        lines.append("")
    return "\n".join(lines)


def keep_suite_section(path: str) -> str:
    """The hand-recorded ``SUITE_HEADING`` section of ``path``, if any.

    Suite medians come from ``benchmarks/suite`` runs, not from a
    ``BENCH_*.json`` file, so regenerating the page carries them over.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return ""
    start = text.find(SUITE_HEADING)
    return "\n" + text[start:].rstrip("\n") if start >= 0 else ""


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument(
        "--root",
        default=default_root,
        help="directory scanned for BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(default_root, "docs", "perf_trajectory.md"),
        help="markdown file to write (default: docs/perf_trajectory.md)",
    )
    args = parser.parse_args(argv)

    files = load_bench_files(args.root)
    doc = render_markdown(files) + keep_suite_section(args.out)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        handle.write(doc + "\n")
    total = sum(len(records) for _, records in files)
    print(f"wrote {args.out}: {len(files)} file(s), {total} experiment(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
