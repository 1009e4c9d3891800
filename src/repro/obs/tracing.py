"""The cell's event log: every engine event, recorded once.

An event is one ``(ts, kind, component, detail)`` raised with
:meth:`TraceLog.record`.  A cell has one log, its scheduler's
(``cell.trace``): the sampler drains it into ``sys.events``, the flight
recorder builds its ``stalls``/``exceptions`` from it, and
:meth:`TraceLog.subscribe` is the one push seam.  It keeps two bounded
retentions: a ring of the last ``capacity`` events of every kind (what
happened last), and one of the same size of every kind but ``fire``, so
a burst of firings cannot evict the rare events before they are read.

A sampled batch's firings are its spans: the receptor stamps a trace
token on one batch in 64, and every ``fire`` record of a firing that
worked on the batch carries the token as ``trace`` (a factory's also
carries its ``opcodes`` timings).  :func:`chrome_trace` draws them as
Chrome trace-event JSON, one root per token.

Timestamps are ``time.monotonic()`` — events order, they do not tell
wall-clock time (see ``docs/observability.md``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple,
)

__all__ = ["TraceEvent", "TraceLog", "chrome_trace", "write_json"]

#: Hands a traced factory firing's opcode timings from the MAL interpreter
#: to the factory: the factory sets ``opcodes`` to a list for the firing,
#: and the interpreter appends ``(opcode, start, seconds, node)`` to it
#: for every instruction it executes meanwhile.
traced_firing = threading.local()


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine event.

    ``kind`` is a small vocabulary ("fire", "register", "error",
    "stall", ...); ``component`` is the transition/basket/subsystem
    name; ``detail`` carries kind-specific values.
    """

    ts: float
    kind: str
    component: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in self.detail.items())
        return f"[{self.ts:.6f}] {self.kind:<10} {self.component:<20} {detail}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class TraceLog:
    """A thread-safe event log.

    A ``fire`` record, one per activation, is a plain tuple appended to
    the ring without a lock (``deque.append`` with a ``maxlen`` is atomic
    under the GIL).  Any other kind also enters the second retention
    under the lock, so :meth:`since` counts it exactly, and then goes to
    every subscriber.  Readers get :class:`TraceEvent` objects.
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self._capacity = capacity
        self._events: Deque[Tuple[float, str, str, Dict[str, Any]]] = deque(
            maxlen=capacity
        )
        self._kept: Deque[Tuple[float, str, str, Dict[str, Any]]] = deque(
            maxlen=capacity
        )
        self._subscribers: Tuple[Callable[[TraceEvent], Any], ...] = ()
        self._lock = threading.Lock()
        self.total_recorded = 0
        self.total_kept = 0  # lifetime non-fire count: since()'s cursor

    @property
    def capacity(self) -> int:
        return self._capacity

    def record(self, kind: str, component: str, **detail: Any) -> None:
        event = (time.monotonic(), kind, component, detail)
        self._events.append(event)
        self.total_recorded += 1
        if kind == "fire":
            return
        with self._lock:
            self._kept.append(event)
            self.total_kept += 1
        for subscriber in self._subscribers:
            try:
                subscriber(TraceEvent(*event))
            except Exception as exc:
                # a broken consumer must not break the recording code
                warnings.warn(
                    f"event subscriber {subscriber!r} raised on {kind!r}: "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def subscribe(
        self, subscriber: Callable[[TraceEvent], Any]
    ) -> Callable[[], None]:
        """Call ``subscriber(event)`` on the recording thread for every
        event but ``fire``, after it is retained; returns the function
        that unsubscribes it.  An exception it raises becomes a
        ``RuntimeWarning`` and does not reach the recording code."""
        with self._lock:
            self._subscribers = self._subscribers + (subscriber,)

        def unsubscribe() -> None:
            with self._lock:
                self._subscribers = tuple(
                    s for s in self._subscribers if s is not subscriber
                )

        return unsubscribe

    def events(
        self,
        kind: Optional[str] = None,
        component: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Oldest-first snapshot of the ring, optionally filtered."""
        # one C-level copy first: record() appends to the ring without
        # the lock, and a Python-level loop over the live deque would
        # see it mutate between two bytecodes
        snapshot = [TraceEvent(*event) for event in list(self._events)]
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        if component is not None:
            snapshot = [e for e in snapshot if e.component == component]
        return snapshot

    def since(self, cursor: int = 0) -> Tuple[List[TraceEvent], int]:
        """The retained non-``fire`` events recorded after the first
        ``cursor`` of them, oldest first, and the cursor to pass next
        time (``since(0)`` is everything still retained)."""
        with self._lock:
            fresh = min(self.total_kept - cursor, len(self._kept))
            tail = list(self._kept)[-fresh:] if fresh > 0 else []
            total = self.total_kept
        return [TraceEvent(*event) for event in tail], total

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._kept.clear()

    def __len__(self) -> int:
        return len(self._events)

    def render(self, last: int = 25) -> str:
        """The most recent ``last`` events as text (post-mortem view)."""
        events = self.events()[-last:]
        if not events:
            return "(trace empty)"
        return "\n".join(e.render() for e in events)


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """The sampled batches' spans as Chrome trace-event JSON (Perfetto).

    Draws only the ``fire`` records that carry a ``trace`` token.  Each
    token gets one ``batch`` root spanning its records; a receptor or
    factory record hands off to the token's next record, in log order,
    until the token's first emitter record — the batch left the engine —
    after which records hang off the root.  Opcode events nest under
    their factory.  ``args`` carry span, parent and token ids, so
    causality survives where the timeline does not nest.
    """
    chains: Dict[int, List[TraceEvent]] = {}
    for event in events:
        token = event.detail.get("trace") if event.kind == "fire" else None
        if token:
            chains.setdefault(token, []).append(event)
    ids = itertools.count(1)
    out: List[Dict[str, Any]] = []

    def span(name, cat, token, start, seconds, parent=None, **args):
        span_id = next(ids)
        args.update(span_id=span_id, token=token)
        if parent is not None:
            args["parent_id"] = parent
        out.append({
            "name": name, "cat": cat, "ph": "X",
            "ts": start * 1e6, "dur": max(seconds, 0.0) * 1e6,
            "pid": 1, "tid": token, "args": args,
        })
        return span_id

    for token, records in chains.items():
        start = min(r.ts - r.detail["elapsed"] for r in records)
        end = max(r.ts for r in records)
        root = handoff = span("batch", "batch", token, start, end - start)
        for record in records:
            detail = record.detail
            began = record.ts - detail["elapsed"]
            stage = detail["stage"]
            span_id = span(
                record.component, stage, token, began, detail["elapsed"],
                handoff or root,
                tuples_in=detail["tuples_in"],
                tuples_out=detail["tuples_out"],
            )
            for opcode, offset, seconds, node in detail.get("opcodes", ()):
                span(opcode, "opcode", token, began + offset, seconds,
                     span_id, node=node)
            if stage == "emitter":
                handoff = None
            elif handoff:
                handoff = span_id
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_json(path: str, doc: Any) -> None:
    """Write ``doc`` as JSON to ``path`` through an atomic rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=1, default=str)
    os.replace(tmp, path)
