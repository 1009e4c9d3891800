"""Per-layer metrics of the in-process workloads.

Three sources, kept apart (README, "Per-layer metrics"):

* exact counts the engine already keeps (``cell.stats()`` and public
  counters of factories, emitters and plans), read after an *untraced*
  slice;
* self times from the *traced* slice;
* the isolated probes of probes.py.
"""

from __future__ import annotations

from typing import Any, Dict

from harness import SliceStats
from repro.core import Emitter, Factory
from tracing import Tracer

ENGINE_LAYERS = (
    "kernel", "core.basket", "core.factory", "core.scheduler",
    "core.emitter", "windows", "durability", "linearroad", "server",
)
LR_PLANS = {
    "linearroad.stats_plan_ms": "lr_stats_f",
    "linearroad.accident_plan_ms": "lr_accidents_f",
    "linearroad.toll_plan_ms": "lr_tolls_f",
}


def exact_counts(cell: Any, stats: SliceStats) -> Dict[str, float]:
    """Counts the engine made itself during one untraced slice."""
    snapshot = cell.stats()
    mal = snapshot["mal"].values()
    calls = sum(op["calls"] for op in mal)
    seconds = sum(op["seconds"] for op in mal)
    transitions = snapshot["scheduler"]["transitions"]
    firings = sum(t["firings"] for t in transitions.values())
    idle = sum(t["idle_polls"] for t in transitions.values())
    factories = [
        t for t in cell.scheduler.transitions() if isinstance(t, Factory)
    ]
    emitters = [
        t for t in cell.scheduler.transitions() if isinstance(t, Emitter)
    ]
    activations = sum(f.activations for f in factories)
    out = {
        "kernel.mal_calls": float(calls),
        "kernel.mal_us_per_call": seconds / calls * 1e6 if calls else 0.0,
        "core.basket.depth_max": float(max(
            (b["high_water"] for b in snapshot["baskets"].values()), default=0
        )),
        "core.factory.activations": float(activations),
        # input rows, not snapshot rows: a snapshot also holds residue
        "core.factory.rows_per_activation": (
            stats.rows / activations if activations else 0.0
        ),
        "core.scheduler.idle_poll_share": (
            idle / (firings + idle) if firings + idle else 0.0
        ),
        "core.emitter.rows_delivered": float(
            sum(e.total_delivered for e in emitters)
        ),
        "windows.fallbacks": float(len(cell.incremental_fallbacks)),
    }
    for factory in factories:
        processed = getattr(factory.plan, "values_processed", None)
        if processed is not None:
            out["windows.values_per_row"] = processed / stats.rows
    durability = snapshot.get("durability")
    if durability is not None:
        out["durability.fsyncs"] = float(durability["wal_fsyncs"])
        out["durability.wal_bytes_per_row"] = (
            durability["wal_bytes"] / stats.rows
        )
    ticks = max(1, stats.attempted)
    for metric, name in LR_PLANS.items():
        if name in transitions:
            total = transitions[name]["activation_seconds"].get("sum", 0.0)
            out[metric] = total / ticks * 1e3
    return out


def traced_metrics(tracer: Tracer, cell: Any, traced: SliceStats,
                   untraced: SliceStats) -> Dict[str, float]:
    """Self times of the traced slice, folded into the declared names."""
    by_layer = tracer.self_times()
    wall = traced.wall_s
    engine = sum(by_layer.get(layer, 0.0) for layer in ENGINE_LAYERS)
    factory_runs = len(tracer.durations("factory:"))
    emitter_spans = tracer.durations("emitter:")
    delivered = sum(
        t.total_delivered for t in cell.scheduler.transitions()
        if isinstance(t, Emitter)
    )
    steps = cell.scheduler.total_iterations
    out = {
        "kernel.mal_busy_share": by_layer.get("kernel", 0.0) / wall,
        "core.factory.activate_self_us": (
            by_layer.get("core.factory", 0.0) / factory_runs * 1e6
            if factory_runs else 0.0
        ),
        "core.scheduler.self_us_per_step": (
            by_layer.get("core.scheduler", 0.0) / steps * 1e6
            if steps else 0.0
        ),
        "core.emitter.us_per_row_delivered": (
            sum(emitter_spans) / delivered * 1e6 if delivered else 0.0
        ),
        "core.basket.bytes_copied_per_row": (
            tracer.bytes_copied() / traced.rows
        ),
        "trace.overhead_share": (
            (traced.wall_s - untraced.wall_s) / untraced.wall_s
        ),
        "trace.self_time_coverage": engine / wall,
    }
    if "windows" in by_layer:
        runs = tracer.durations("plan:")
        out["windows.plan_run_ms"] = sum(runs) / len(runs) * 1e3
    return out
