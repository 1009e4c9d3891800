"""System streams — the engine monitoring itself with its own machinery.

The paper's thesis is that streams belong *inside* the relational
kernel; this module closes the loop by turning the engine's telemetry
into first-class streams.  A :class:`TelemetrySampler` transition runs
on the ordinary scheduler at a configurable cadence (driven by the
cell's clock, so ``LogicalClock`` tests are deterministic) and converts
:class:`~repro.obs.metrics.MetricsRegistry` readings into *delta rows*
appended to four reserved baskets:

``sys.metrics``
    one row per instrument whose value changed since the last sample
    (``metric, labels, kind, value, delta``); histograms expand into
    ``_count``/``_sum``/``_p50``/``_p99`` suffixed rows;
``sys.queries``
    one row per continuous query per sample (delivered/activation
    deltas plus instantaneous p50/p99 insert→emit latency);
``sys.baskets``
    one row per *user* basket per sample (depth, depth delta, flow
    deltas, high water) — the flight recorder's stall predicate
    becomes the one-liner ``depth_delta > 0 and consumed_delta = 0``;
``sys.events``
    every event of the cell's log (:mod:`repro.obs.tracing`) but
    ``fire``: registrations, errors, stalls, checkpoints, alert
    firings, budget breaches, client sessions — drained each tick.

The sampler is the only writer of ``sys.*`` baskets: everything else
raises an event with ``cell.trace.record`` and the next tick appends
it.

System baskets are deliberately *second-class citizens of durability
and shedding*: they are exempt from WAL capture (their rows are derived
measurements, recomputed by any run), excluded from checkpoints, immune
to load shedding, and bounded by a ring-buffer ``retention`` instead —
dropping the oldest rows without counting them as shed.

Because the baskets live in the ordinary catalog (under the reserved
``sys.`` schema), **meta-queries** are just continuous queries::

    cell.submit_continuous(
        "select b.basket, b.depth from "
        "[select * from sys.baskets where depth_delta > 0 "
        "and consumed_delta = 0] as b")

:class:`AlertRule` wraps such a query with once-per-breach-window
firing semantics and routes firings to callbacks and ``alert`` events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kernel.types import AtomType
from .metrics import Histogram, MetricsRegistry
from .resources import BreachWindow

__all__ = [
    "SYS_SCHEMA",
    "SYS_METRICS",
    "SYS_QUERIES",
    "SYS_BASKETS",
    "SYS_EVENTS",
    "SYS_RESOURCES",
    "SYS_STREAM_SCHEMAS",
    "SystemStreamsConfig",
    "TelemetrySampler",
    "AlertRule",
    "is_system_name",
    "tail_rows",
]

SYS_SCHEMA = "sys."
SYS_METRICS = "sys.metrics"
SYS_QUERIES = "sys.queries"
SYS_BASKETS = "sys.baskets"
SYS_EVENTS = "sys.events"
SYS_RESOURCES = "sys.resources"

#: Reserved basket schemas (user columns; ``dc_time`` is implicit).
SYS_STREAM_SCHEMAS: Dict[str, List[Tuple[str, AtomType]]] = {
    SYS_METRICS: [
        ("metric", AtomType.STR),
        ("labels", AtomType.STR),
        ("kind", AtomType.STR),
        ("value", AtomType.DBL),
        ("delta", AtomType.DBL),
    ],
    SYS_QUERIES: [
        ("query", AtomType.STR),
        ("delivered", AtomType.LNG),
        ("delivered_delta", AtomType.LNG),
        ("activations", AtomType.LNG),
        ("activations_delta", AtomType.LNG),
        ("p50_latency", AtomType.DBL),
        ("p99_latency", AtomType.DBL),
    ],
    SYS_BASKETS: [
        ("basket", AtomType.STR),
        ("depth", AtomType.LNG),
        ("depth_delta", AtomType.LNG),
        ("inserted_delta", AtomType.LNG),
        ("consumed_delta", AtomType.LNG),
        ("shed_delta", AtomType.LNG),
        ("high_water", AtomType.LNG),
    ],
    SYS_EVENTS: [
        ("kind", AtomType.STR),
        ("component", AtomType.STR),
        ("detail", AtomType.STR),
    ],
    # one row per query whose resource account changed since the last
    # sample; ``*_delta`` columns are since-last-sample (see
    # docs/observability.md, "Resource accounting and budgets")
    SYS_RESOURCES: [
        ("query", AtomType.STR),
        ("tenant", AtomType.STR),
        ("cpu_seconds", AtomType.DBL),
        ("cpu_delta", AtomType.DBL),
        ("plan_cpu_seconds", AtomType.DBL),
        ("opcode_cpu_seconds", AtomType.DBL),
        ("memory_bytes", AtomType.LNG),
        ("queue_wait_seconds", AtomType.DBL),
        ("queue_wait_delta", AtomType.DBL),
        ("rows_in", AtomType.LNG),
        ("rows_in_delta", AtomType.LNG),
        ("rows_out", AtomType.LNG),
        ("rows_out_delta", AtomType.LNG),
        ("bytes_in", AtomType.LNG),
        ("bytes_out", AtomType.LNG),
    ],
}


def is_system_name(name: str) -> bool:
    """True for names in the reserved ``sys.`` schema."""
    return name.lower().startswith(SYS_SCHEMA)


@dataclass
class SystemStreamsConfig:
    """Knobs for the telemetry sampler and the reserved baskets.

    ``interval`` is in the cell clock's units (seconds for the default
    :class:`~repro.core.clock.WallClock`; ticks for a ``LogicalClock``).
    ``retention`` bounds every ``sys.*`` basket as a ring buffer.
    """

    interval: float = 1.0
    retention: int = 512


class TelemetrySampler:
    """The ``sys_sampler`` transition: telemetry → system-stream rows.

    A :class:`~repro.core.scheduler.SchedulableTransition` like any
    receptor or emitter — cadence comes from ``enabled()`` comparing the
    cell clock against the next due time, so both driving modes (and the
    deterministic simulator) sample without a dedicated thread.  The
    priority is below emitters: a sample observes the sweep's settled
    state, not its intermediate churn.

    Self-measurement is cut off at the source: instruments labeled with
    ``sys.*`` names (the system baskets' own depth/flow counters) and
    with this transition's name, and events about this transition, are
    skipped, so a sample never makes the next sample non-empty and
    ``run_until_quiescent`` still quiesces.
    """

    def __init__(self, cell: Any, config: Optional[SystemStreamsConfig] = None):
        self.cell = cell
        self.config = config or SystemStreamsConfig()
        if self.config.interval <= 0:
            raise ValueError("sampler interval must be positive")
        if self.config.retention <= 0:
            raise ValueError("sys stream retention must be positive")
        self.name = "sys_sampler"
        self.priority = -20
        self.baskets: Dict[str, Any] = {}
        for basket_name, columns in SYS_STREAM_SCHEMAS.items():
            self.baskets[basket_name] = cell._create_system_basket(
                basket_name, columns, self.config.retention
            )
        self.samples_taken = 0
        self.rows_emitted = 0
        self.alerts: Dict[str, "AlertRule"] = {}
        self._next_due = cell.clock.now() + self.config.interval
        # previous-sample values, keyed per stream; deltas come from here
        self._prev_metrics: Dict[Tuple[str, str, Tuple[str, ...]], float] = {}
        self._prev_queries: Dict[str, Tuple[int, int]] = {}
        self._prev_baskets: Dict[str, Tuple[int, int, int, int]] = {}
        self._prev_resources: Dict[str, Dict[str, Any]] = {}
        # this sample's per-account deltas, for resource-budget checks
        self._last_resource_deltas: Dict[str, Dict[str, float]] = {}
        # sys.events starts with the events raised from here on
        self._event_cursor = cell.trace.total_kept
        metrics: MetricsRegistry = cell.metrics
        self._m_samples = metrics.counter(
            "datacell_sys_samples_total",
            "Telemetry samples taken by the sys_sampler transition",
        )
        self._m_rows = metrics.counter(
            "datacell_sys_rows_total",
            "Rows appended to system streams",
            ("stream",),
        )

    # ------------------------------------------------------------------
    # SchedulableTransition protocol
    # ------------------------------------------------------------------
    def enabled(self) -> bool:
        return self.cell.clock.now() >= self._next_due

    def due_in(self) -> float:
        """Seconds until the next sample: time-driven, the sampler has no
        input places, and an idle dispatcher wakes for it then."""
        return self._next_due - self.cell.clock.now()

    def activate(self):
        from ..core.factory import ActivationResult

        now = float(self.cell.clock.now())
        rows_out = 0
        # resources before metrics so the engine-memory gauge the metrics
        # sweep reads is this tick's value, not last tick's
        rows_out += self._sample_resources(now)
        rows_out += self._sample_metrics(now)
        rows_out += self._sample_queries(now)
        rows_out += self._sample_baskets(now)
        self.samples_taken += 1
        # budgets before the drain, so a breach is in sys.events the
        # tick that detects it
        if self.cell.resources.enabled:
            self.cell.resources.check_budgets(
                self._last_resource_deltas, self.samples_taken
            )
        rows_out += self._drain_events(now)
        self.rows_emitted += rows_out
        self._m_samples.inc()
        # one activation absorbs any number of elapsed intervals: deltas
        # are since-last-sample, so a late sample is coarse, never wrong
        self._next_due = now + self.config.interval
        return ActivationResult(
            fired=True,
            tuples_in=0,
            tuples_out=rows_out,
            consumed=0,
        )

    # ------------------------------------------------------------------
    # the four streams
    # ------------------------------------------------------------------
    def _skip_labels(self, key: Tuple[str, ...]) -> bool:
        """Drop samples that measure the system streams themselves."""
        return any(
            is_system_name(value) or value == self.name for value in key
        )

    def _sample_metrics(self, now: float) -> int:
        rows: List[List[Any]] = []
        for family in self.cell.metrics.families():
            if family.name.startswith("datacell_sys_"):
                continue  # the sampler's own instruments: pure feedback
            for key, child in sorted(family.children().items()):
                if self._skip_labels(key):
                    continue
                labels = ",".join(
                    f"{n}={v}" for n, v in zip(family.label_names, key)
                )
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    points = (
                        ("_count", float(snap["count"])),
                        ("_sum", float(snap["sum"])),
                        ("_p50", float(snap["p50"])),
                        ("_p99", float(snap["p99"])),
                    )
                    count_key = (family.name + "_count", labels, key)
                    if self._prev_metrics.get(count_key) == float(
                        snap["count"]
                    ):
                        continue  # no new observations: nothing changed
                    for suffix, value in points:
                        prev_key = (family.name + suffix, labels, key)
                        prev = self._prev_metrics.get(prev_key, 0.0)
                        self._prev_metrics[prev_key] = value
                        rows.append([
                            family.name + suffix, labels, "histogram",
                            value, value - prev,
                        ])
                else:
                    value = float(child.value)
                    prev_key = (family.name, labels, key)
                    prev = self._prev_metrics.get(prev_key)
                    if prev is not None and prev == value:
                        continue
                    self._prev_metrics[prev_key] = value
                    rows.append([
                        family.name, labels, family.kind,
                        value, value - (prev or 0.0),
                    ])
        return self._append(SYS_METRICS, rows, now)

    def _sample_queries(self, now: float) -> int:
        rows: List[List[Any]] = []
        m = self.cell.metrics
        for q in self.cell.continuous_queries():
            delivered = int(q.results_delivered)
            activations = int(q.activations)
            prev_d, prev_a = self._prev_queries.get(q.name, (0, 0))
            self._prev_queries[q.name] = (delivered, activations)
            latency = m.histogram_snapshot(
                "datacell_query_latency_seconds", (q.output_basket.name,)
            ) or {}
            rows.append([
                q.name,
                delivered, delivered - prev_d,
                activations, activations - prev_a,
                float(latency.get("p50", 0.0)),
                float(latency.get("p99", 0.0)),
            ])
        return self._append(SYS_QUERIES, rows, now)

    def _sample_baskets(self, now: float) -> int:
        rows: List[List[Any]] = []
        for basket in self.cell.catalog.baskets():
            if is_system_name(basket.name):
                continue
            depth = int(basket.count)
            total_in = int(basket.total_in)
            total_out = int(basket.total_out)
            shed = int(basket.total_shed)
            prev = self._prev_baskets.get(basket.name, (0, 0, 0, 0))
            self._prev_baskets[basket.name] = (
                depth, total_in, total_out, shed
            )
            rows.append([
                basket.name,
                depth, depth - prev[0],
                total_in - prev[1],
                total_out - prev[2],
                shed - prev[3],
                int(basket.high_water),
            ])
        return self._append(SYS_BASKETS, rows, now)

    def _sample_resources(self, now: float) -> int:
        """One ``sys.resources`` row per query whose account changed.

        Also refreshes the engine-wide memory gauge and stashes this
        sample's per-account deltas for the budget checks that run
        later in the activation.
        """
        accountant = getattr(self.cell, "resources", None)
        self._last_resource_deltas = {}
        if accountant is None or not accountant.enabled:
            return 0
        shares = accountant.input_shares()
        rows: List[List[Any]] = []
        for account in accountant.accounts():
            snap = account.snapshot(shares)
            prev = self._prev_resources.get(account.name)
            p = prev or {}
            deltas = {
                "cpu_delta": snap["cpu_seconds"] - p.get("cpu_seconds", 0.0),
                "queue_wait_delta": (
                    snap["queue_wait_seconds"]
                    - p.get("queue_wait_seconds", 0.0)
                ),
                "rows_in_delta": snap["rows_in"] - p.get("rows_in", 0),
                "rows_out_delta": snap["rows_out"] - p.get("rows_out", 0),
                "memory_bytes": snap["memory_bytes"],
            }
            self._last_resource_deltas[account.name] = deltas
            if prev == snap:
                continue  # idle query: no row, stream stays quiescent
            self._prev_resources[account.name] = snap
            rows.append([
                account.name,
                snap["tenant"],
                snap["cpu_seconds"],
                deltas["cpu_delta"],
                snap["plan_cpu_seconds"],
                snap["opcode_cpu_seconds"],
                int(snap["memory_bytes"]),
                snap["queue_wait_seconds"],
                deltas["queue_wait_delta"],
                int(snap["rows_in"]),
                int(deltas["rows_in_delta"]),
                int(snap["rows_out"]),
                int(deltas["rows_out_delta"]),
                int(snap["bytes_in"]),
                int(snap["bytes_out"]),
            ])
        accountant._m_memory.set(accountant.engine_memory_bytes())
        return self._append(SYS_RESOURCES, rows, now)

    def _drain_events(self, now: float) -> int:
        """Every event but ``fire`` raised since the last tick."""
        events, self._event_cursor = self.cell.trace.since(
            self._event_cursor
        )
        rows = [
            [e.kind, e.component, json.dumps(e.detail, default=str)]
            for e in events
            if e.component != self.name
        ]
        return self._append(SYS_EVENTS, rows, now)

    def _append(self, stream: str, rows: List[List[Any]], now: float) -> int:
        if not rows:
            return 0
        self.baskets[stream].insert_rows(rows, timestamp=now)
        self._m_rows.labels(stream).inc(len(rows))
        return len(rows)

    def close(self) -> None:
        """Unregister the sampler and drop the system baskets."""
        self.cell.scheduler.unregister(self.name)
        for rule in list(self.alerts.values()):
            rule.cancel()
        for name in self.baskets:
            if self.cell.catalog.has(name):
                self.cell.catalog.drop(name)
        self.baskets = {}


class AlertRule:
    """A meta-query with once-per-breach-window firing semantics.

    Wraps a continuous query (normally over ``sys.*`` streams).  Every
    non-empty delivery marks the current sampler tick as *breached*,
    and the rule fires once per
    :class:`~repro.obs.resources.BreachWindow`.

    Firings go to the optional ``callback(rule, rows)``, to an ``alert``
    event (so to ``sys.events`` at the next tick), and to the
    ``datacell_alerts_fired_total`` counter.
    """

    def __init__(
        self,
        name: str,
        query: Any,
        sampler: TelemetrySampler,
        callback: Optional[Callable[["AlertRule", List[Tuple]], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.query = query
        self.sampler = sampler
        self.callback = callback
        self.firings = 0
        self.last_rows: List[Tuple] = []
        self.cancelled = False
        self._window = BreachWindow()
        registry = metrics if metrics is not None else sampler.cell.metrics
        self._m_fired = registry.counter(
            "datacell_alerts_fired_total",
            "Alert-rule firings (once per breach window)",
            ("alert",),
        ).labels(name)
        query.subscribe(self._on_delivery)
        sampler.alerts[name] = self

    def _on_delivery(self, rows: List[Tuple]) -> None:
        tick = self.sampler.samples_taken
        if not rows or self.cancelled or not self._window.opens(tick):
            return
        self.firings += 1
        self.last_rows = list(rows)
        self._m_fired.inc()
        self.sampler.cell.trace.record(
            "alert", self.name, rows=len(rows), tick=tick
        )
        if self.callback is not None:
            self.callback(self, rows)

    def cancel(self) -> None:
        """Unregister the underlying meta-query."""
        if self.cancelled:
            return
        self.cancelled = True
        self.sampler.alerts.pop(self.name, None)
        self.query.cancel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AlertRule({self.name!r}, firings={self.firings})"


# ----------------------------------------------------------------------
# helpers shared by the HTTP endpoint and the flight recorder
# ----------------------------------------------------------------------
def tail_rows(
    basket: Any, limit: int = 50
) -> Tuple[List[str], List[List[Any]]]:
    """The last ``limit`` rows of a basket as plain python values.

    Returns ``(column_names, rows)`` with the implicit ``dc_time``
    column included last — JSON-serializable by construction.
    """
    from ..kernel.types import python_values

    with basket.lock:
        names = [c.name.lower() for c in basket.schema]
        count = basket.count
        start = max(0, count - int(limit))
        columns = [
            python_values(bat.atom, bat.tail[start:count])
            for bat in basket.bats()
        ]
    return names, [list(row) for row in zip(*columns)]
