"""Span recording from outside the engine, for the traced pass only.

Spans are recorded by wrapping bound methods on *instances* (a basket, a
transition, the interpreter of one cell) — never classes or modules — so
an untraced engine built next to a traced one runs unwrapped code.  Each
span keeps its parent and the id of the batch being processed.  A span's
self time is its duration minus the time its children cover; a layer's
self time is the sum over its spans.

The span file is Chrome trace-event JSON (``chrome://tracing``,
Perfetto): one complete event (``ph: "X"``) per span, ``cat`` = layer,
``args`` = id, parent and batch.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import Emitter, Factory

# (name, layer, start, end, parent id, batch id, rows copied)
Span = Tuple[str, str, float, float, int, int, int]

BASKET_METHODS = (
    "insert_columns", "insert_rows", "snapshot", "consume_all",
    "consume_seqs", "truncate", "append_result", "read_new",
    "advance_reader", "gc_shared",
)
DURABILITY_METHODS = ("log_insert", "log_emit", "log_firing", "flush")


def _rows_copied(method: str, basket: Any, result: Any) -> int:
    """Rows a basket call physically copied (README: bytes_copied)."""
    if method in ("insert_columns", "insert_rows", "append_result"):
        return int(result)
    if method == "snapshot":
        return int(result.count)
    if method in ("consume_seqs", "gc_shared"):
        return int(basket.count)  # survivors are rebuilt into new BATs
    return 0


class Tracer:
    """In-memory span recorder plus the instance wrapping that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.batch = -1
        self._wrapped: List[Tuple[Any, str]] = []
        self.row_bytes: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def wrap(self, obj: Any, method: str, layer: str,
             label: Optional[str] = None, new_batch: bool = False,
             copied: Optional[Callable[[Any], int]] = None) -> None:
        """Shadow ``obj.method`` with a span-recording bound wrapper."""
        inner = getattr(obj, method)
        name = label or method
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if new_batch:
                self.batch += 1
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            rows = 0
            started = clock()
            try:
                result = inner(*args, **kwargs)
                if copied is not None:
                    rows = copied(result)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans[sid] = (name, layer, started, ended, parent,
                              self.batch, rows)

        setattr(obj, method, traced)
        self._wrapped.append((obj, method))

    def unwrap_all(self) -> None:
        for obj, method in self._wrapped:
            try:
                delattr(obj, method)
            except AttributeError:
                pass
        self._wrapped = []

    def instrument(self, cell: Any, input_baskets: Tuple[str, ...],
                   plan_layer: str) -> None:
        """Wrap the layer boundaries of one engine instance."""
        self.wrap(cell.scheduler, "run_until_quiescent", "core.scheduler")
        for transition in cell.scheduler.transitions():
            if isinstance(transition, Factory):
                self.wrap(transition, "activate", "core.factory",
                          label=f"factory:{transition.name}")
                self.wrap(transition.plan, "run", plan_layer,
                          label=f"plan:{transition.name}")
            elif isinstance(transition, Emitter):
                self.wrap(transition, "activate", "core.emitter",
                          label=f"emitter:{transition.name}")
            else:
                self.wrap(transition, "activate", "server",
                          label=f"transition:{transition.name}")
        for method in ("run", "execute"):
            self.wrap(cell.interpreter, method, "kernel", label=f"mal.{method}")
        for basket in cell.catalog.baskets():
            self.row_bytes[basket.name] = basket.row_nbytes()
            for method in BASKET_METHODS:
                self.wrap(
                    basket, method, "core.basket",
                    label=f"{basket.name}.{method}",
                    new_batch=(
                        basket.name in input_baskets
                        and method in ("insert_columns", "insert_rows")
                    ),
                    copied=(
                        lambda result, m=method, b=basket:
                        _rows_copied(m, b, result)
                    ),
                )
        if cell.durability is not None:
            for method in DURABILITY_METHODS:
                self.wrap(cell.durability, method, "durability")

    # -- analysis ------------------------------------------------------
    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def self_times(self) -> Dict[str, float]:
        """Per-layer self seconds: each span minus what its children cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        by_layer: Dict[str, float] = defaultdict(float)
        for sid, span in enumerate(spans):
            if span is not None:
                by_layer[span[1]] += (span[3] - span[2]) - child_time[sid]
        return dict(by_layer)

    def durations(self, prefix: str) -> List[float]:
        """Full durations of the spans whose label starts with ``prefix``."""
        return [
            span[3] - span[2] for span in self.finished()
            if span[0].startswith(prefix)
        ]

    def bytes_copied(self) -> int:
        total = 0
        for span in self.finished():
            if span[6]:
                basket = span[0].rsplit(".", 1)[0]
                total += span[6] * self.row_bytes.get(basket, 0)
        return total

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((span[2] for span in self.finished()), default=0.0)
        events = [
            {
                "name": span[0], "cat": span[1], "ph": "X", "pid": 1, "tid": 1,
                "ts": round((span[2] - origin) * 1e6, 3),
                "dur": round((span[3] - span[2]) * 1e6, 3),
                "args": {"id": sid, "parent": span[4], "batch": span[5]},
            }
            for sid, span in enumerate(self.spans) if span is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
