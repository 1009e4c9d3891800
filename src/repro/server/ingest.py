"""The ingest-queue seam: where the asyncio loop meets the scheduler.

Network readers never touch baskets.  A decoded ``INSERT`` becomes an
:class:`IngestBatch` on the thread-safe :class:`IngestQueue`; the
:class:`ServerIngestPump` — an ordinary Petri-net transition, priority
10 like a receptor — drains the queue *inside* the scheduler and applies
each batch with :meth:`~repro.core.basket.Basket.insert_columns` (the
columnar fast path, which also WAL-logs under the basket lock).  The
pump applies every batch it took, makes them durable with one WAL
group commit, and only then sends the replies, in the order the batches
were taken: an ``ACK`` means the batch survives a power loss under
``fsync="always"``, at one fsync per pump activation.

Because the pump is a normal transition, the seam works identically
under the threaded scheduler, the synchronous driver, and the simulated
scheduler — which is how ``repro.simtest`` covers the network path
(:mod:`repro.simtest.server_episode`) without sockets.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.factory import ActivationResult
from ..core.places import Place
from .protocol import (
    ColumnSpec,
    Command,
    Message,
)

__all__ = ["IngestBatch", "IngestQueue", "ServerIngestPump"]


class IngestBatch:
    """One decoded INSERT waiting to be applied by the pump."""

    __slots__ = (
        "basket", "columns", "arrays", "rows", "seq", "tenant", "reply",
    )

    def __init__(
        self,
        basket: str,
        columns: List[ColumnSpec],
        arrays: List[np.ndarray],
        rows: int,
        seq: Optional[int] = None,
        tenant: str = "default",
        reply: Optional[Callable[[Message], Any]] = None,
    ):
        self.basket = basket
        self.columns = columns
        self.arrays = arrays
        self.rows = rows
        self.seq = seq
        self.tenant = tenant
        self.reply = reply


class IngestQueue(Place):
    """Thread-safe FIFO of batches with per-tenant pending-row counts.

    The pump's input place: a put wakes the pump.

    The pending-row watermark is the admission-control lever: a reader
    coroutine checks :meth:`pending_rows` for its tenant before reading
    more socket bytes, so an over-watermark tenant is throttled by TCP
    flow control instead of unbounded queueing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batches: Deque[IngestBatch] = deque()
        self._pending_rows: Dict[str, int] = {}
        self.total_batches = 0
        self.total_rows = 0

    def put(self, batch: IngestBatch) -> None:
        with self._lock:
            self._batches.append(batch)
            self._pending_rows[batch.tenant] = (
                self._pending_rows.get(batch.tenant, 0) + batch.rows
            )
            self.total_batches += 1
            self.total_rows += batch.rows
        self.changed()

    def take(self, limit: int) -> List[IngestBatch]:
        with self._lock:
            out: List[IngestBatch] = []
            while self._batches and len(out) < limit:
                batch = self._batches.popleft()
                remaining = (
                    self._pending_rows.get(batch.tenant, 0) - batch.rows
                )
                if remaining > 0:
                    self._pending_rows[batch.tenant] = remaining
                else:
                    self._pending_rows.pop(batch.tenant, None)
                out.append(batch)
            return out

    def pending(self) -> int:
        with self._lock:
            return len(self._batches)

    def pending_rows(self, tenant: str) -> int:
        with self._lock:
            return self._pending_rows.get(tenant, 0)


def _error(batch: IngestBatch, code: str, exc: Exception) -> Message:
    return Message(
        Command.ERROR, {"code": code, "message": str(exc), "seq": batch.seq}
    )


class ServerIngestPump:
    """The scheduler-side transition applying queued ingest batches.

    Mirrors the receptor contract (priority 10: ingest drains ahead of
    queries); its "input place" is the ingest queue.  A batch whose
    basket has vanished, or whose arrays mismatch the schema, is
    answered with an ``ERROR`` reply and skipped — the stream outlives
    malformed input, like a receptor skipping bad tuples.
    """

    def __init__(
        self,
        cell: Any,
        queue: IngestQueue,
        batch_limit: int = 64,
        name: str = "server_ingest",
        priority: int = 10,
    ):
        self.cell = cell
        self.queue = queue
        self.batch_limit = batch_limit
        self.name = name
        self.priority = priority
        self.activations = 0
        self.total_rows = 0
        self.total_errors = 0
        self._m_rows = cell.metrics.counter(
            "datacell_server_ingested_rows_total",
            "Rows applied to baskets through the server ingest seam",
        )
        self._m_errors = cell.metrics.counter(
            "datacell_server_ingest_errors_total",
            "Ingest batches rejected at apply time",
        )

    # ------------------------------------------------------------------
    def input_places(self) -> Tuple[IngestQueue]:
        return (self.queue,)

    def enabled(self) -> bool:
        return self.queue.pending() > 0

    def activate(self) -> ActivationResult:
        batches = self.queue.take(self.batch_limit)
        applied = 0
        replies: List[Tuple[IngestBatch, Message]] = []
        for batch in batches:
            try:
                basket = self.cell.basket(batch.basket)
                inserted = basket.insert_columns(
                    {
                        name: array
                        for (name, _), array in zip(
                            batch.columns, batch.arrays
                        )
                    }
                )
            except Exception as exc:
                self.total_errors += 1
                self._m_errors.inc()
                replies.append((batch, _error(batch, "ingest", exc)))
                continue
            applied += inserted
            replies.append(
                (batch, Message(
                    Command.ACK, {"seq": batch.seq, "rows": inserted}
                ))
            )
        try:
            if self.cell.durability is not None:
                self.cell.durability.commit()
        except OSError as exc:
            # not durable, so not acknowledged
            for i, (batch, message) in enumerate(replies):
                if message.command is Command.ACK:
                    self.total_errors += 1
                    self._m_errors.inc()
                    replies[i] = (batch, _error(batch, "durability", exc))
        for batch, message in replies:
            if batch.reply is not None:
                batch.reply(message)
        self.activations += 1
        self.total_rows += applied
        if applied:
            self._m_rows.inc(applied)
        return ActivationResult(
            fired=True,
            tuples_in=sum(b.rows for b in batches),
            tuples_out=applied,
            consumed=sum(b.rows for b in batches),
            drained=len(batches) < self.batch_limit,  # the queue was empty
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServerIngestPump(pending={self.queue.pending()}, "
            f"rows={self.total_rows})"
        )
