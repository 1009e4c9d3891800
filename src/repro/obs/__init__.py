"""Observability: metrics, tracing, and dashboards for the DataCell.

The paper's scheduler (§2.4) is the hook for "query priorities, low-latency
requirements, load shedding and dynamic environment changes" — all of which
need measurements.  This package is the engine-wide measurement substrate:

* :mod:`repro.obs.metrics` — a dependency-free metrics registry with
  thread-safe counters, gauges and fixed-bucket histograms (plus a
  zero-cost no-op mode and Prometheus text exposition);
* :mod:`repro.obs.tracing` — the cell's one event log: every engine event
  (firings, errors, registrations, stalls, checkpoints, breaches, client
  sessions) is recorded once into ``cell.trace``, and ``sys.events``, the
  flight record and the server's tenant throttle all read it;
* :mod:`repro.obs.spans` — sampled causal span tracing: one root span per
  appended batch, continued across basket hand-offs, nested per MAL
  opcode, exportable as Chrome trace-event JSON (Perfetto);
* :mod:`repro.obs.flightrec` — a stall-detecting watchdog writing JSON
  post-mortems (basket depths, factory states, the log's stall and error
  events, spans, thread stacks);
* :mod:`repro.obs.dashboard` — renders a :meth:`DataCell.stats` snapshot
  as an aligned text dashboard;
* :mod:`repro.obs.sysstreams` — the engine monitoring itself: a sampler
  transition turning registry readings and logged events into rows of
  reserved ``sys.*`` baskets, queryable with ordinary continuous SQL
  (meta-queries), plus :class:`AlertRule` firing semantics on top;
* :mod:`repro.obs.httpd` — a stdlib HTTP endpoint serving ``/metrics``
  (Prometheus), ``/dashboard``, ``/stats``, ``/top``,
  ``/explain/<query>`` and ``/sys/<basket>`` from a live cell;
* :mod:`repro.obs.resources` — per-query resource accounting: thread-CPU
  at firing/plan/opcode boundaries, ``nbytes()`` memory rollups,
  queue-wait, and :class:`ResourceBudget` caps with ``budget_breach``
  events.

Every core component (scheduler, factory, basket, receptor, emitter, MAL
interpreter) accepts a ``metrics`` registry; components built without one
share the process-wide default registry returned by
:func:`default_registry`.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_INSTRUMENT,
    Tally,
    default_registry,
    set_default_registry,
)
from .tracing import TraceEvent, TraceLog
from .spans import Span, SpanRecorder
from .flightrec import FlightRecorder
from .dashboard import render_dashboard
from .sysstreams import (
    SYS_BASKETS,
    SYS_EVENTS,
    SYS_METRICS,
    SYS_QUERIES,
    SYS_RESOURCES,
    AlertRule,
    SystemStreamsConfig,
    TelemetrySampler,
    is_system_name,
    tail_rows,
)
from .resources import (
    QueryResourceAccount,
    ResourceAccountant,
    ResourceBudget,
    estimate_nbytes,
)
from .httpd import TelemetryServer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "Tally",
    "default_registry",
    "set_default_registry",
    "TraceEvent",
    "TraceLog",
    "Span",
    "SpanRecorder",
    "FlightRecorder",
    "render_dashboard",
    "SYS_BASKETS",
    "SYS_EVENTS",
    "SYS_METRICS",
    "SYS_QUERIES",
    "SYS_RESOURCES",
    "AlertRule",
    "SystemStreamsConfig",
    "TelemetrySampler",
    "is_system_name",
    "tail_rows",
    "QueryResourceAccount",
    "ResourceAccountant",
    "ResourceBudget",
    "estimate_nbytes",
    "TelemetryServer",
]
