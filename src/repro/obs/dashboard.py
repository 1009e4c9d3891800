"""Render a :meth:`DataCell.stats` snapshot as an aligned text dashboard.

:func:`format_table` is the one table renderer, shared with
:meth:`DataCell.top`.  The dashboard is plain text on purpose: it works
over ssh, in CI logs, and in a ``watch``-style loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .tracing import TraceLog

__all__ = ["format_table", "render_dashboard"]

_MS = 1e3


def _ms(seconds: Any) -> float:
    return float(seconds or 0.0) * _MS


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> str:
    """Render an aligned text table under a ``== title ==`` line."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered))
        if rendered
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    out = [f"== {title} ==", line, "-" * len(line)]
    for row in rendered:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(out)


def render_dashboard(
    stats: Dict[str, Any],
    trace: Optional[TraceLog] = None,
    trace_events: int = 10,
) -> str:
    """Build the full text dashboard from a ``stats()`` snapshot."""
    sections: List[str] = []

    scheduler = stats.get("scheduler", {})
    header = (
        f"scheduler: iterations={scheduler.get('iterations', 0)} "
        f"firings={scheduler.get('firings', 0)}"
    )
    sections.append(header)

    transitions = scheduler.get("transitions", {})
    if transitions:
        rows = []
        for name, t in sorted(transitions.items()):
            hist = t.get("activation_seconds") or {}
            rows.append((
                name,
                int(t.get("firings") or 0),
                int(t.get("idle_polls") or 0),
                _ms(hist.get("p50")),
                _ms(hist.get("p95")),
                _ms(hist.get("max")),
            ))
        sections.append(format_table(
            "Transitions",
            ["transition", "firings", "idle polls",
             "p50 ms", "p95 ms", "max ms"],
            rows,
        ))

    baskets = stats.get("baskets", {})
    if baskets:
        rows = [
            (
                name,
                int(b.get("depth") or 0),
                int(b.get("high_water") or 0),
                int(b.get("inserted") or 0),
                int(b.get("consumed") or 0),
                int(b.get("shed") or 0),
            )
            for name, b in sorted(baskets.items())
        ]
        sections.append(format_table(
            "Baskets",
            ["basket", "depth", "high water", "inserted", "consumed", "shed"],
            rows,
        ))

    queries = stats.get("queries", {})
    if queries:
        rows = []
        for name, q in sorted(queries.items()):
            lat = q.get("latency") or {}
            rows.append((
                name,
                int(q.get("delivered") or 0),
                int(lat.get("count") or 0),
                _ms(lat.get("p50")),
                _ms(lat.get("p95")),
                _ms(lat.get("p99")),
                _ms(lat.get("max")),
            ))
        sections.append(format_table(
            "Continuous queries (insert → emit latency)",
            ["query", "delivered", "samples",
             "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
        ))

    mal = stats.get("mal", {})
    if mal:
        ranked = sorted(
            mal.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
        )[:15]
        rows = [
            (op, int(prof.get("calls") or 0), _ms(prof.get("seconds")))
            for op, prof in ranked
        ]
        sections.append(format_table(
            "MAL opcodes (top 15 by cumulative time)",
            ["opcode", "calls", "total ms"],
            rows,
        ))

    resources = stats.get("resources")
    if resources:
        engine = resources.get("engine", {})
        accounts = resources.get("queries", {})
        ranked = sorted(
            accounts.items(),
            key=lambda kv: -(kv[1].get("cpu_seconds") or 0.0),
        )[:10]
        rows = []
        for name, a in ranked:
            waited = int(a.get("queue_wait_tuples") or 0)
            wait = a.get("queue_wait_seconds") or 0.0
            rows.append((
                name,
                a.get("tenant", "default"),
                _ms(a.get("cpu_seconds")),
                _ms(a.get("plan_cpu_seconds")),
                _ms(a.get("opcode_cpu_seconds")),
                int(a.get("memory_bytes") or 0) // 1024,
                _ms(wait / waited) if waited else 0.0,
                int(a.get("rows_in") or 0),
                int(a.get("rows_out") or 0),
            ))
        sections.append(format_table(
            "Top queries by CPU "
            f"(engine memory={int(engine.get('memory_bytes') or 0)} B)",
            ["query", "tenant", "cpu ms", "plan ms", "opcode ms",
             "mem kb", "wait ms", "rows in", "rows out"],
            rows,
        ))
        budgets = resources.get("budgets", {})
        if budgets:
            sections.append(format_table(
                "Resource budgets",
                ["budget", "scope", "breaches"],
                [
                    (n, b.get("scope", "?"), int(b.get("breaches") or 0))
                    for n, b in sorted(budgets.items())
                ],
            ))

    durability = stats.get("durability")
    if durability:
        ckpt_ms = _ms(durability.get("last_checkpoint_seconds"))
        rec = durability.get("recovery_seconds")
        rows = [(
            durability.get("fsync_policy", "?"),
            int(durability.get("wal_records") or 0),
            int(durability.get("wal_bytes") or 0),
            int(durability.get("wal_fsyncs") or 0),
            int(durability.get("wal_segments") or 0),
            int(durability.get("checkpoints") or 0),
            ckpt_ms,
            _ms(rec) if rec is not None else "-",
        )]
        sections.append(format_table(
            "Durability (WAL + checkpoints)",
            ["fsync", "records", "bytes", "fsyncs", "segments",
             "ckpts", "last ckpt ms", "recovery ms"],
            rows,
        ))

    sys_section = stats.get("sys")
    if sys_section:
        streams = sys_section.get("streams", {})
        alerts = sys_section.get("alerts", {})
        rows = [
            (name, int(depth))
            for name, depth in sorted(streams.items())
        ]
        sections.append(format_table(
            f"System streams (samples={sys_section.get('samples', 0)} "
            f"rows={sys_section.get('rows', 0)})",
            ["stream", "depth"],
            rows,
        ))
        if alerts:
            sections.append(format_table(
                "Alert rules",
                ["alert", "firings"],
                [(n, int(f)) for n, f in sorted(alerts.items())],
            ))

    server_section = stats.get("server")
    if server_section:
        ingest = server_section.get("ingest", {})
        sessions = server_section.get("sessions", {})
        rows = [
            (
                sid,
                s.get("tenant", "?"),
                s.get("subscriptions", 0),
                s.get("rows_in", 0),
                s.get("rows_out", 0),
                s.get("dropped_frames", 0),
                s.get("queue_depth", 0),
            )
            for sid, s in sorted(sessions.items())
        ]
        sections.append(format_table(
            f"Server ({server_section.get('address')} "
            f"policy={server_section.get('backpressure')} "
            f"ingested={ingest.get('applied_rows', 0)} "
            f"pending={ingest.get('pending_batches', 0)} "
            f"http={server_section.get('http_requests', 0)})",
            ["session", "tenant", "subs", "rows_in", "rows_out",
             "dropped", "queued"],
            rows,
        ))
        throttled = server_section.get("throttled_tenants") or {}
        if throttled:
            sections.append(format_table(
                "Throttled tenants",
                ["tenant", "remaining_s"],
                sorted(throttled.items()),
            ))

    if trace is not None and len(trace):
        sections.append(
            f"== Trace (last {trace_events} of {len(trace)} buffered) ==\n"
            + trace.render(trace_events)
        )

    return "\n\n".join(sections) + "\n"
