"""Flight recorder — stall detection and JSON post-mortems.

A stream engine's worst failure mode is silent: a factory wedges (a bug,
a lock, an exception swallowed by a thread) and baskets fill while the
dashboard still renders.  The flight recorder watches for exactly that
signature — **basket depth rising while scheduler firings stay flat**
over a configurable observation window — and, when it sees it, writes a
post-mortem any engineer can open without a debugger attached:

* basket depths, high-waters, and flow counters,
* factory states (activations, totals, per-input cursors),
* the last N events of the cell's log,
* the sampled batches' spans, drawn from the same events,
* every thread's current stack via :func:`sys._current_frames`.

The recorder keeps no event history of its own.  A detected stall is a
``stall`` event in the cell's log (:mod:`repro.obs.tracing`), a failed
activation is the scheduler's ``error`` event (with its traceback), and
the dump's ``stalls``/``exceptions`` sections are built from those
events.  Subscribed to the log, the recorder dumps on either event when
``auto_dump_path`` is set; it also dumps on demand via
:meth:`~repro.core.engine.DataCell.dump_flight_record`.

The recorder never drives the engine: :meth:`sample` is called either by
the optional watchdog thread (:meth:`start`) or explicitly from tests and
synchronous loops, so stall detection is deterministic when you need it
to be.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .tracing import TraceEvent, chrome_trace, write_json

__all__ = ["FlightRecorder"]

#: the dump's ``exceptions`` section keeps this many newest errors
MAX_EXCEPTIONS = 32

#: event kind -> the dump ``reason`` it auto-dumps with
_DUMP_REASONS = {"stall": "stall", "error": "exception"}


class FlightRecorder:
    """Watches a DataCell and writes JSON post-mortems.

    ``window`` is the number of consecutive samples a stall signature
    must persist before it is reported; with the watchdog running at
    ``interval`` seconds, the observation window is ``window * interval``
    seconds.  ``auto_dump_path`` makes stalls and transition exceptions
    write a dump without anyone asking.
    """

    def __init__(
        self,
        cell: Any,
        window: int = 5,
        trace_events: int = 64,
        auto_dump_path: Optional[str] = None,
    ):
        if window < 2:
            raise ValueError("stall window needs at least 2 samples")
        self.cell = cell
        self.window = window
        self.trace_events = trace_events
        self.auto_dump_path = auto_dump_path
        self._lock = threading.Lock()
        # (monotonic time, total firings, {basket: depth})
        self._samples: Deque[Tuple[float, int, Dict[str, int]]] = deque(
            maxlen=window
        )
        self._watchdog: Optional[threading.Thread] = None
        self._watch_stop = threading.Event()
        self.last_dump: Optional[Dict[str, Any]] = None
        cell.trace.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # sampling & stall detection
    # ------------------------------------------------------------------
    def sample(self) -> Optional[Dict[str, Any]]:
        """Record one observation.  When the window now shows the stall
        signature (depth rising, firings flat), records a ``stall``
        event and returns its detail — the dump's ``stalls`` entry."""
        depths = {
            basket.name: basket.count
            for basket in self.cell.catalog.baskets()
            # sys.* baskets fill by design and drain only by retention:
            # their rising depth is not a stall signature
            if not getattr(basket, "is_system", False)
        }
        with self._lock:
            self._samples.append(
                (time.monotonic(), self.cell.scheduler.total_firings, depths)
            )
            stall = self._evaluate_locked()
        if stall is not None:
            self.cell.trace.record(
                "stall", ",".join(stall["baskets"]), **stall
            )
        return stall

    def _evaluate_locked(self) -> Optional[Dict[str, Any]]:
        if len(self._samples) < self.window:
            return None
        first_t, first_f, first_d = self._samples[0]
        last_t, last_f, last_d = self._samples[-1]
        if last_f != first_f:
            return None  # the scheduler is making progress
        stalled: List[str] = []
        for name, depth in last_d.items():
            start = first_d.get(name)
            if start is None or depth <= start:
                continue
            # require monotone non-decreasing depth across every sample:
            # a basket that drained mid-window is being consumed, just
            # slower than it fills — back-pressure, not a stall
            series = [d.get(name, 0) for _, _, d in self._samples]
            if all(b >= a for a, b in zip(series, series[1:])):
                stalled.append(name)
        if not stalled:
            return None
        # clear the window so one stall is reported once, not per sample
        self._samples.clear()
        return {
            "baskets": stalled,
            "transitions": self._transitions_reading(stalled),
            "window_seconds": last_t - first_t,
            "firings_during_window": last_f - first_f,
            # post-mortems are for humans: real wall time is the point
            "detected_at": time.time(),  # dc-lint: disable=wall-clock
        }

    def _transitions_reading(self, baskets: List[str]) -> List[str]:
        """The factories/emitters whose inputs are the stalled baskets —
        the transitions that should have been draining them."""
        from ..core.basket import Basket
        from ..core.scheduler import input_places

        wanted = {b.lower() for b in baskets}
        out: List[str] = []
        for transition in self.cell.scheduler.transitions():
            reads = {
                place.name.lower()
                for place in input_places(transition) or ()
                if isinstance(place, Basket)
            }
            if wanted & reads:
                out.append(transition.name)
        return out

    # ------------------------------------------------------------------
    # watchdog thread
    # ------------------------------------------------------------------
    def start(self, interval: float = 0.5) -> None:
        """Start the watchdog thread sampling every ``interval`` seconds."""
        if self._watchdog is not None:
            return
        self._watch_stop.clear()
        self._watchdog = threading.Thread(
            target=self._watch, args=(interval,),
            name="datacell-flightrec", daemon=True,
        )
        self._watchdog.start()

    def stop(self) -> None:
        self._watch_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None

    @property
    def running(self) -> bool:
        return self._watchdog is not None and self._watchdog.is_alive()

    def _watch(self, interval: float) -> None:
        while not self._watch_stop.wait(interval):
            try:
                self.sample()
            except Exception:  # pragma: no cover - watchdog must survive
                pass

    # ------------------------------------------------------------------
    # the log's stall and error events
    # ------------------------------------------------------------------
    def _on_event(self, event: TraceEvent) -> None:
        """Log subscriber: auto-dump on a stall or a transition error."""
        reason = _DUMP_REASONS.get(event.kind)
        if reason is not None and self.auto_dump_path:
            self.dump(self.auto_dump_path, reason=reason)

    def stalls(self) -> List[Dict[str, Any]]:
        """The retained ``stall`` events' details, oldest first."""
        events, _ = self.cell.trace.since()
        return [dict(e.detail) for e in events if e.kind == "stall"]

    def exceptions(self) -> List[Dict[str, Any]]:
        """The last :data:`MAX_EXCEPTIONS` retained ``error`` events,
        oldest first, with the event's time on the wall clock."""
        events, _ = self.cell.trace.since()
        errors = [e for e in events if e.kind == "error"][-MAX_EXCEPTIONS:]
        # monotonic event stamps -> wall time, for the human reading it
        wall = time.time() - time.monotonic()  # dc-lint: disable=wall-clock
        return [
            {
                "transition": e.component,
                "type": e.detail.get("type"),
                "message": e.detail.get("message"),
                "traceback": e.detail.get("traceback", []),
                "time": wall + e.ts,
            }
            for e in errors
        ]

    # ------------------------------------------------------------------
    # the post-mortem itself
    # ------------------------------------------------------------------
    def snapshot(self, reason: str = "manual") -> Dict[str, Any]:
        """Build the post-mortem document (JSON-serializable)."""
        cell = self.cell
        baskets: Dict[str, Any] = {}
        for basket in cell.catalog.baskets():
            baskets[basket.name] = {
                "depth": basket.count,
                "high_water": basket.high_water,
                "inserted": basket.total_in,
                "consumed": basket.total_out,
                "shed": basket.total_shed,
                "capacity": basket.capacity,
                "min_count": basket.min_count,
                "readers": basket.readers(),
            }
        factories: Dict[str, Any] = {}
        transitions: Dict[str, Any] = {}
        for transition in cell.scheduler.transitions():
            transitions[transition.name] = {
                "kind": type(transition).__name__,
                "priority": transition.priority,
                "enabled": _safe_enabled(transition),
            }
            bindings = getattr(transition, "inputs", None)
            if bindings is None:
                continue
            factories[transition.name] = {
                "activations": transition.activations,
                "tuples_in": transition.total_in,
                "tuples_out": transition.total_out,
                "total_elapsed": cell.scheduler.counts(transition.name)[2],
                "plan": transition.plan.describe(),
                "inputs": [
                    {
                        "basket": b.basket.name,
                        "mode": b.mode.value,
                        "last_seen_seq": b.last_seen_seq,
                        "min_tuples": b.min_tuples,
                    }
                    for b in bindings
                ],
                "outputs": [b.name for b in transition.outputs],
            }
        receptors = [
            t for t in cell.scheduler.transitions()
            if hasattr(t, "sampled_batches")
        ]
        events = cell.trace.events()
        with self._lock:
            history = [
                {"t": t, "firings": f, "depths": dict(d)}
                for t, f, d in self._samples
            ]
        doc = {
            "reason": reason,
            "generated_at": time.time(),  # dc-lint: disable=wall-clock
            "scheduler": {
                "total_firings": cell.scheduler.total_firings,
                "total_iterations": cell.scheduler.total_iterations,
                "running": cell.scheduler.running,
            },
            "baskets": baskets,
            "factories": factories,
            "transitions": transitions,
            "stalls": self.stalls(),
            "exceptions": self.exceptions(),
            "sample_history": history,
            "trace_events": [
                {
                    "ts": e.ts,
                    "kind": e.kind,
                    "component": e.component,
                    "detail": dict(e.detail),
                }
                for e in events[-self.trace_events:]
            ],
            "spans": {
                "batches_seen": sum(r.batches_seen for r in receptors),
                "sampled_batches": sum(r.sampled_batches for r in receptors),
                "finished": chrome_trace(events)["traceEvents"],
            },
            "sys_streams": self._sys_tails(),
            "resources": self._resource_snapshot(),
            "thread_stacks": _thread_stacks(),
        }
        return doc

    def _resource_snapshot(self) -> Dict[str, Any]:
        """Per-query resource accounts at dump time (who was spending
        what when it went wrong), empty when accounting is dark."""
        accountant = getattr(self.cell, "resources", None)
        if accountant is None or not accountant.enabled:
            return {}
        return accountant.stats()

    def _sys_tails(self, limit: int = 32) -> Dict[str, Any]:
        """Last rows of ``sys.metrics``/``sys.events``, when enabled.

        The post-mortem then carries the engine's own recent telemetry —
        what the metrics looked like, which events fired — next to the
        structural snapshot, so a dump is self-contained.
        """
        sampler = getattr(self.cell, "sys", None)
        if sampler is None:
            return {}
        from .sysstreams import SYS_EVENTS, SYS_METRICS, tail_rows

        out: Dict[str, Any] = {}
        for name in (SYS_METRICS, SYS_EVENTS):
            basket = sampler.baskets.get(name)
            if basket is None:
                continue
            columns, rows = tail_rows(basket, limit)
            out[name] = {"columns": columns, "rows": rows}
        return out

    def dump(self, path: str, reason: str = "manual") -> Dict[str, Any]:
        """Write the post-mortem JSON to ``path`` (atomic rename)."""
        doc = self.snapshot(reason=reason)
        self.last_dump = doc
        write_json(path, doc)
        return doc


def _safe_enabled(transition: Any) -> Optional[bool]:
    """A transition's enablement, or None if asking it raises (the whole
    point of a flight recorder is surviving broken components)."""
    try:
        return bool(transition.enabled())
    except Exception:
        return None


def _thread_stacks() -> Dict[str, List[str]]:
    """Formatted stacks of every live thread, keyed by thread name."""
    names = {t.ident: t.name for t in threading.enumerate()}
    out: Dict[str, List[str]] = {}
    for ident, frame in sys._current_frames().items():
        key = f"{names.get(ident, 'unknown')} ({ident})"
        out[key] = traceback.format_stack(frame)
    return out
