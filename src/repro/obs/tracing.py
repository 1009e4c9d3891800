"""Bounded ring-buffer tracing of scheduler decisions and activations.

When a continuous-query network stalls or livelocks, counters tell you
*that* something is wrong; the trace tells you *what happened last*.  The
scheduler records one :class:`TraceEvent` per transition firing (and per
registration change); the ring buffer keeps the most recent ``capacity``
events at O(1) cost per record, so tracing can stay on in production.

Timestamps are ``time.monotonic()`` — traces order events, they do not
tell wall-clock time (see ``docs/observability.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded engine decision.

    ``kind`` is a small vocabulary ("fire", "register", "unregister",
    "shed", ...); ``component`` is the transition/basket name; ``detail``
    carries kind-specific numbers (tuples in/out, elapsed seconds...).
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
    """A thread-safe ring buffer of :class:`TraceEvent`.

    ``deque.append`` with a ``maxlen`` is atomic under the GIL, so the
    record path takes no lock; snapshot reads copy under a lock to get a
    consistent view while writers keep appending.  The ring holds plain
    ``(ts, kind, component, detail)`` tuples — recording happens on every
    firing, reading rarely — and readers get :class:`TraceEvent` objects.
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self._capacity = capacity
        self._events: Deque[Tuple[float, str, str, Dict[str, Any]]] = deque(
            maxlen=capacity
        )
        self._lock = threading.Lock()
        self.total_recorded = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def record(self, kind: str, component: str, **detail: Any) -> None:
        self._events.append((time.monotonic(), kind, component, detail))
        self.total_recorded += 1

    def events(
        self,
        kind: Optional[str] = None,
        component: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Oldest-first snapshot, optionally filtered."""
        with self._lock:
            snapshot = [TraceEvent(*event) for event in self._events]
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        if component is not None:
            snapshot = [e for e in snapshot if e.component == component]
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def render(self, last: int = 25) -> str:
        """The most recent ``last`` events as text (post-mortem view)."""
        events = self.events()[-last:]
        if not events:
            return "(trace empty)"
        return "\n".join(e.render() for e in events)
