"""Sampled causal span tracing across the stream pipeline.

The trace ring (:mod:`repro.obs.tracing`) answers *what fired last*; the
metric histograms answer *how slow on average*.  Neither answers the
causal question — "where did **this** batch spend its time?"  Spans do:
a receptor opens one *root* span per appended batch (sampled, default
1 in 64), every transition that later touches those tuples continues the
same trace, the MAL interpreter nests one span per executed opcode, and
the emitter closes the root when the results leave the engine.

Propagation piggybacks on the baskets, exactly like the hidden monotonic
origin stamp that feeds the latency histograms: a sampled batch carries a
*trace token* in its basket run through every basket hop, so causality
survives factory chains without any side channel.  The token is the root
span's id; ``0`` means "not sampled" and costs one integer comparison.

Finished spans export as Chrome trace-event JSON
(:meth:`SpanRecorder.export_chrome_trace`) loadable in Perfetto or
``chrome://tracing``; timestamps are ``time.perf_counter`` microseconds,
so traces order and measure — they do not tell wall-clock time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = ["Span", "SpanRecorder"]

#: Root spans an engine keeps open at once before evicting the oldest —
#: a backstop for pipelines whose results never reach an emitter.
_MAX_OPEN_ROOTS = 1024


class Span:
    """One timed, attributed region of a trace.

    ``token`` is the id of the trace's root span; the root's own token is
    its ``span_id``.  ``parent_id`` encodes causality: receptor → factory
    → factory … → emitter chains hang off each other, opcode spans hang
    off the factory activation that executed them.
    """

    __slots__ = (
        "span_id", "parent_id", "token", "name", "kind",
        "start", "end", "thread", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        token: int,
        name: str,
        kind: str,
        start: float,
        attrs: Dict[str, Any],
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.token = token
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.thread = threading.get_ident()
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (flight records, tests)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "token": self.token,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"Span({self.kind}:{self.name} #{self.span_id} {state})"


class SpanRecorder:
    """Thread-safe recorder of sampled, causally linked spans.

    The hot-path contract mirrors the metrics registry: an *unsampled*
    batch costs one lock acquisition at the receptor and one integer
    comparison everywhere else; a *disabled* recorder
    (``enabled=False``) costs a single attribute check.  Sampling is
    deterministic — batch ``0, rate, 2*rate, ...`` of each recorder are
    sampled — so tests and A/B runs are reproducible.
    """

    def __init__(
        self,
        sample_rate: int = 64,
        capacity: int = 8192,
        enabled: bool = True,
    ):
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive (1 = every batch)")
        if capacity <= 0:
            raise ValueError("span capacity must be positive")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.capacity = capacity
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 1
        self._finished: Deque[Span] = deque(maxlen=capacity)
        self._open_roots: Dict[int, Span] = {}
        self._last_handoff: Dict[int, int] = {}
        self.batches_seen = 0
        self.sampled_batches = 0

    # ------------------------------------------------------------------
    # trace lifecycle
    # ------------------------------------------------------------------
    def begin_batch(self, **attrs: Any) -> int:
        """Open a root span for a freshly appended batch.

        Returns the trace token to stamp on the batch's tuples, or ``0``
        when this batch is not sampled (or the recorder is disabled).
        """
        if not self.enabled:
            return 0
        with self._lock:
            seen = self.batches_seen
            self.batches_seen += 1
            if seen % self.sample_rate:
                return 0
            self.sampled_batches += 1
            span_id = self._next_id
            self._next_id += 1
            root = Span(
                span_id, None, span_id, "batch", "batch",
                time.perf_counter(), attrs,
            )
            self._open_roots[span_id] = root
            self._last_handoff[span_id] = span_id
            if len(self._open_roots) > _MAX_OPEN_ROOTS:
                oldest = next(iter(self._open_roots))
                self._close_root_locked(oldest, time.perf_counter())
            return span_id

    def begin_stage(
        self, name: str, kind: str, token: int, **attrs: Any
    ) -> Optional[Span]:
        """Open a child span continuing trace ``token`` (receptor,
        factory, or emitter activation).  ``None`` when the token is 0 —
        callers hold the returned span and need no further guards."""
        if not token or not self.enabled:
            return None
        with self._lock:
            parent = self._last_handoff.get(token, token)
            span_id = self._next_id
            self._next_id += 1
            return Span(
                span_id, parent, token, name, kind,
                time.perf_counter(), attrs,
            )

    def end_stage(
        self, span: Optional[Span], handoff: bool = False, **attrs: Any
    ) -> None:
        """Close a stage span; ``handoff=True`` makes it the parent of
        the trace's next stage (receptors and factories hand off, opcode
        and emitter spans do not)."""
        if span is None:
            return
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self._finished.append(span)
            if handoff and span.token in self._last_handoff:
                self._last_handoff[span.token] = span.span_id

    def add_opcode(
        self, parent: Span, name: str, start: float, duration: float,
        **attrs: Any,
    ) -> None:
        """Record one already-timed opcode execution under ``parent``
        (the MAL interpreter times instructions anyway; re-using its
        measurements keeps span overhead out of the opcode loop)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                span_id, parent.span_id, parent.token, name, "opcode",
                start, attrs,
            )
            span.end = start + duration
            self._finished.append(span)

    def close_root(self, token: int, **attrs: Any) -> None:
        """Close the trace's root span (the emitter delivered results).

        Idempotent: a second close (separate-baskets replication delivers
        the same batch through several emitters) extends the root's end
        to the latest delivery instead of failing.
        """
        if not token:
            return
        now = time.perf_counter()
        with self._lock:
            root = self._open_roots.get(token)
            if root is not None:
                if attrs:
                    root.attrs.update(attrs)
                self._close_root_locked(token, now)
                return
            for span in self._finished:
                if span.span_id == token and span.kind == "batch":
                    span.end = max(span.end or now, now)
                    if attrs:
                        span.attrs.update(attrs)
                    return

    def _close_root_locked(self, token: int, now: float) -> None:
        root = self._open_roots.pop(token)
        root.end = now
        self._finished.append(root)
        self._last_handoff.pop(token, None)

    # ------------------------------------------------------------------
    # interpreter hook: the current stage span, per thread
    # ------------------------------------------------------------------
    def stage(self, span: Optional[Span]) -> "_StageScope":
        """Context manager publishing ``span`` as this thread's current
        stage, so nested execution layers (the MAL interpreter) can
        attach opcode spans without any parameter plumbing."""
        return _StageScope(self._tls, span)

    def current_stage(self) -> Optional[Span]:
        return getattr(self._tls, "span", None)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self, kind: Optional[str] = None) -> List[Span]:
        """Finished spans, oldest first, optionally filtered by kind."""
        with self._lock:
            out = list(self._finished)
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        return out

    def open_roots(self) -> List[Span]:
        """Roots whose batches have not reached an emitter yet."""
        with self._lock:
            return list(self._open_roots.values())

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._open_roots.clear()
            self._last_handoff.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event representation (Perfetto-loadable).

        Every span becomes a complete ("X") event; still-open roots are
        rendered up to "now" so a live engine can be snapshotted.  The
        ``args`` carry span/parent ids, so causality survives even when
        spans from different threads do not nest visually.
        """
        now = time.perf_counter()
        with self._lock:
            spans = list(self._finished) + list(self._open_roots.values())
        events = []
        for span in spans:
            end = span.end if span.end is not None else now
            args: Dict[str, Any] = {
                "span_id": span.span_id,
                "token": span.token,
            }
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(end - span.start, 0.0) * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path`` (atomic rename)."""
        import os

        payload = self.to_chrome_trace()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1, default=str)
        os.replace(tmp, path)

    def __len__(self) -> int:
        return len(self._finished)


class _StageScope:
    """Restores the previous thread-local stage on exit (re-entrant)."""

    __slots__ = ("_tls", "_span", "_prev")

    def __init__(self, tls: threading.local, span: Optional[Span]):
        self._tls = tls
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._prev = getattr(self._tls, "span", None)
        if self._span is not None:
            self._tls.span = self._span
        return self._span

    def __exit__(self, *exc: Any) -> None:
        if self._span is not None:
            self._tls.span = self._prev
