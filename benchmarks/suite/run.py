"""The DataCell benchmark: one command, seven workloads.

Two ways in (README.md has the method and every metric's definition):

``python3 benchmarks/suite/run.py --seed 42``
    runs every workload untraced in a process of its own, checks the
    outputs against the references, prints every metric with unit and
    sample count, and writes ``out/suite.seed42.json``.  ``--trace``
    runs the per-layer pass instead; ``--quick`` a 1/20 smoke run.

``... --workload NAME --seed N --seconds S --trace 0|1``
    one workload, ending with one JSON line: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the end-to-end metrics for ``--trace 0``
    and the per-layer ones for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import harness
from harness import (
    EXTRA_SETUPS,
    OUT_DIR,
    REPO_ROOT,
    TIMED_SLICES,
    Metric,
    SliceStats,
    end_to_end_metrics,
    load_average,
    load_declaration,
    peak_rss_mb,
    percentile,
    settle_after_warmup,
    tail_metric,
    timed,
)

WORKLOAD_NAMES = (
    "fig1_bulk", "fig1_trickle", "join_agg", "win_slide", "wal_ingest",
    "lr_replay", "srv_open",
)
DEFAULT_SECONDS = 10.0


class RunResult:
    """Everything one workload run measured."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.metrics: Dict[str, Metric] = {}
        self.attempted = 0
        self.failed = 0
        self.info: Dict[str, Any] = {}

    def add(self, values: Dict[str, float], units: Dict[str, str]) -> None:
        for name, value in values.items():
            if name not in units:
                raise KeyError(f"metric {name!r} is not in BENCHMARK.json")
            self.metrics[name] = Metric(float(value), units[name])

    def count(self, stats: SliceStats) -> None:
        self.attempted += stats.attempted
        self.failed += stats.failed


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
@contextmanager
def built(workload: Any, inputs: Dict[str, Any], samples: List[float],
          dark: bool = False) -> Iterator[Any]:
    """A freshly set-up engine; set-up time is a ``setup_s`` sample."""
    state, elapsed = timed(workload.setup, inputs, dark)
    if not dark:
        samples.append(elapsed)
    try:
        yield state
    finally:
        workload.teardown(state)


def one_slice(workload: Any, inputs: Dict[str, Any], samples: List[float],
              result: RunResult, dark: bool = False) -> SliceStats:
    with built(workload, inputs, samples, dark) as state:
        stats = workload.run_slice(state, inputs)
        workload.check_slice(state, inputs, stats)
    result.count(stats)
    return stats


def run_untraced(workload: Any, result: RunResult) -> None:
    """Set-up repeats, one warm-up slice, then the timed slices."""
    inputs = workload.generate(result.seed, result.seconds, result.quick)
    samples: List[float] = []
    for _ in range(EXTRA_SETUPS):
        with built(workload, inputs, samples):
            pass
    if not result.quick:
        one_slice(workload, inputs, samples, result)
        settle_after_warmup()
    slices: List[SliceStats] = []
    extra: Dict[str, float] = {}
    timed_slices = 1 if result.quick else TIMED_SLICES
    for index in range(timed_slices):
        with built(workload, inputs, samples) as state:
            stats = workload.run_slice(state, inputs)
            rss = peak_rss_mb()
            workload.check_slice(state, inputs, stats)
            if index == timed_slices - 1:
                extra, failed = workload.finish(state, inputs)
                result.attempted += int(bool(extra))  # the recovery check
                result.failed += failed
        result.count(stats)
        slices.append(stats)
        gc.collect()
    result.metrics.update(end_to_end_metrics(slices, samples, rss))
    result.metrics["p99_ms"] = tail_metric(slices)
    if "recover_s" in extra:
        result.metrics["recover_s"] = Metric(extra["recover_s"], "s")
    result.info.update(
        rows_per_slice=inputs["rows"],
        slices=timed_slices,
        slice_rows_per_s=[s.rows / s.wall_s for s in slices],
        input_digest=workload.input_digest(inputs),
    )


def run_traced(workload: Any, result: RunResult, units: Dict[str, str]) -> None:
    """The per-layer pass: lit, traced and dark slices plus the probes."""
    import layers
    import probes
    from tracing import Tracer

    inputs = workload.generate(result.seed, result.seconds, result.quick)
    samples: List[float] = []
    if not result.quick:
        one_slice(workload, inputs, samples, result)
        settle_after_warmup()
    values: Dict[str, float] = {}

    with built(workload, inputs, samples) as state:
        lit = workload.run_slice(state, inputs)
        workload.check_slice(state, inputs, lit)
        values.update(layers.exact_counts(state.cell, lit))
        extra, failed = workload.finish(state, inputs)
        result.attempted += int(bool(extra))
        result.failed += failed
        values.update(extra)
    result.count(lit)
    gc.collect()

    tracer = Tracer()
    with built(workload, inputs, samples) as state:
        cell = state.cell
        tracer.instrument(cell, workload.input_baskets, workload.plan_layer)
        try:
            traced = workload.run_slice(state, inputs)
        finally:
            tracer.unwrap_all()
        workload.check_slice(state, inputs, traced)
        values.update(layers.traced_metrics(tracer, cell, traced, lit))
    result.count(traced)
    trace_path = OUT_DIR / f"{workload.name}.seed{result.seed}.trace.json"
    tracer.write_chrome_trace(trace_path)
    gc.collect()

    if workload.has_dark_mode:
        dark = one_slice(workload, inputs, samples, result, dark=True)
        lit_rate, dark_rate = lit.rows / lit.wall_s, dark.rows / dark.wall_s
        values["obs.overhead_share"] = (dark_rate - lit_rate) / dark_rate

    probed = probes.run_probes(**workload.probe_sample(inputs))
    fsync_ms = probed.pop("durability.fsync_ms")
    values.update(probed)
    values["durability.fsync_ms_total"] = (
        values.get("durability.fsyncs", 0.0) * fsync_ms
    )
    values["p99_ms"] = percentile(lit.latencies, 99) * 1e3
    values["failed_share"] = result.failed / max(1, result.attempted)
    values["linearroad.generate_s"] = inputs.get("generate_s", 0.0)
    result.add(values, units)
    result.info.update(
        rows_per_slice=inputs["rows"], trace_file=str(trace_path),
        spans=len(tracer.finished()),
        layer_self_s=tracer.self_times(),
    )


# ----------------------------------------------------------------------
# one workload, one process
# ----------------------------------------------------------------------
def provenance(result: RunResult, load_start: float) -> Dict[str, Any]:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "seed": result.seed,
        "seconds": result.seconds,
        "quick": result.quick,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_average(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> RunResult:
    harness.require_engine()
    declaration = load_declaration()
    units = {m["name"]: m["unit"] for m in declaration["per_layer"]}
    load_start = load_average()
    started = time.perf_counter()
    result = RunResult(name, seed, seconds, trace, quick)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if name == "srv_open":
        import srv

        srv.measure(result, units)
    else:
        from workloads import WORKLOADS

        workload = WORKLOADS[name]()
        if trace:
            run_traced(workload, result, units)
        else:
            run_untraced(workload, result)
    declared = declaration["per_layer" if trace else "end_to_end"]
    if trace:
        # a layer the workload bypasses reports an honest zero
        for metric in declared:
            result.metrics.setdefault(
                metric["name"], Metric(0.0, metric["unit"]))
    result.info["provenance"] = provenance(result, load_start)
    result.info["wall_s"] = time.perf_counter() - started
    result.info["declared"] = [m["name"] for m in declared]
    return result


def result_document(result: RunResult) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "trace": result.trace,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_share": result.failed / max(1, result.attempted),
        "metrics": {k: m.as_json() for k, m in result.metrics.items()},
        **result.info,
    }


def driver_line(result: RunResult) -> str:
    """The contract's last line: only the declared metrics, as measured."""
    metrics = {
        name: {"value": result.metrics[name].value,
               "unit": result.metrics[name].unit}
        for name in result.info["declared"]
    }
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"{result.workload}: {name} is not finite")
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    })


def print_metrics(document: Dict[str, Any]) -> None:
    print(f"== {document['workload']}"
          f" ({'per-layer' if document['trace'] else 'end-to-end'},"
          f" {document['wall_s']:.1f} s wall) ==")
    for name, metric in document["metrics"].items():
        extras = [f"n={metric.get('samples', 1)}"]
        if "spread" in metric:
            extras.append(f"spread={metric['spread']:.3f}")
        print(f"  {name:<40} {metric['value']:>16.4f} {metric['unit']:<7}"
              f" {' '.join(extras)}")
    print(f"  {'failed_share':<40} {document['failed_share']:>16.4f} ratio  "
          f" {document['failed']}/{document['attempted']}")


# ----------------------------------------------------------------------
# the whole suite: one child process per workload
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace) -> int:
    harness.require_engine()
    documents: Dict[str, List[Dict[str, Any]]] = {n: [] for n in WORKLOAD_NAMES}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--child",
        ]
        if args.quick:
            command.append("--quick")
        for _ in range(args.repeat):
            child = subprocess.run(command, capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                print(f"== {name}: run failed (exit {child.returncode}) ==")
                return child.returncode or 1
            document = json.loads(child.stdout.splitlines()[-1])
            documents[name].append(document)
            print_metrics(document)
    kind = "layers" if args.trace else "suite"
    tag = ".quick" if args.quick else ""
    path = args.out or OUT_DIR / f"{kind}.seed{args.seed}{tag}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workloads": documents}, handle, indent=1)
    print(f"wrote {path}")
    failed = [n for n, runs in documents.items() if any(d["failed"] for d in runs)]
    if failed:
        print(f"FAILED reference checks: {', '.join(failed)}")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the rows, one slice")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite runs per workload (compare.py takes "
                             "the median and the spread between them)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file of a suite run")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    document = result_document(result)
    if args.child:
        print(json.dumps(document))
        return 0
    print_metrics(document)
    tag = ".layers" if args.trace else ""
    path = OUT_DIR / f"{args.workload}.seed{args.seed}{tag}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(driver_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
