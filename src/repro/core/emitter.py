"""Emitters — the delivery edge of the DataCell (paper §2.1).

An emitter picks up result tuples prepared by the kernel (i.e. appended to
an output basket by a factory) and delivers them to the clients subscribed
to that query result.  Delivery empties the output basket: the emitter is
the final Petri-net transition of the query chain.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Protocol, Tuple, Union,
)

import numpy as np

from ..adapters.channels import Channel, format_tuple
from ..kernel.types import AtomType, python_values
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from .basket import Basket, TIME_COLUMN
from .factory import ActivationResult

__all__ = ["Emitter", "CollectingClient", "DeliveryBatch"]

Row = Tuple[Any, ...]
ClientCallback = Callable[[List[Row]], None]


class BatchConsumer(Protocol):
    """A subscriber that takes the columnar batch instead of rows."""

    def deliver_batch(self, batch: DeliveryBatch) -> None: ...


Subscriber = Union[ClientCallback, BatchConsumer]


class DeliveryBatch:
    """One firing's delivery, kept columnar.

    ``tails`` are the storage arrays of the emitter's snapshot, so NILs
    are the kernel's sentinels (``None`` only in STR columns) and a
    consumer that ships columns — the server's DATA frames — reads them
    as they are.  :meth:`rows` builds python tuples at most once; every
    row subscriber of the firing, and a later ``fetch()``, shares them.
    :meth:`memo` shares any other derived form (an encoded frame) among
    the firing's subscribers.
    """

    __slots__ = ("names", "atoms", "tails", "count", "_rows", "_memo")

    def __init__(
        self,
        names: List[str],
        atoms: List[AtomType],
        tails: List[np.ndarray],
    ):
        self.names = names
        self.atoms = atoms
        self.tails = tails
        self.count = len(tails[0]) if tails else 0
        self._rows: Optional[List[Row]] = None
        self._memo: Optional[Dict[Hashable, Any]] = None

    def __len__(self) -> int:
        return self.count

    def rows(self) -> List[Row]:
        """The batch as python tuples (NIL → ``None``), built once."""
        rows = self._rows
        if rows is None:
            columns = [
                python_values(atom, tail)
                for atom, tail in zip(self.atoms, self.tails)
            ]
            rows = self._rows = list(zip(*columns)) if self.count else []
        return rows

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``'s result, computed once per key for this firing."""
        if self._memo is None:
            self._memo = {}
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


class CollectingClient:
    """A batch subscriber that keeps every delivery (``fetch()``, tests,
    examples).

    Batches stay columnar until :attr:`rows` or :meth:`take` asks for
    tuples; a row subscriber on the same emitter has then already built
    them, and this reuses that one materialisation.
    """

    def __init__(self) -> None:
        self.batches: List[DeliveryBatch] = []
        self.deliveries = 0
        # the emitter thread delivers while a reader thread may take()
        self._lock = threading.Lock()

    def deliver_batch(self, batch: DeliveryBatch) -> None:
        with self._lock:
            self.batches.append(batch)
            self.deliveries += 1

    @property
    def rows(self) -> List[Row]:
        """Every row delivered so far, in delivery order."""
        with self._lock:
            batches = list(self.batches)
        return _flatten(batches)

    def rows_since(self, deliveries: int) -> List[Row]:
        """The rows of the deliveries made after the first
        ``deliveries`` (an earlier :attr:`deliveries`), in delivery order,
        less any that :meth:`take` drained."""
        with self._lock:
            kept = len(self.batches) - (self.deliveries - deliveries)
            batches = self.batches[max(kept, 0):]
        return _flatten(batches)

    def take(self) -> List[Row]:
        """Drain: the rows delivered since the last ``take``."""
        with self._lock:
            batches, self.batches = self.batches, []
        return _flatten(batches)


def _flatten(batches: List[DeliveryBatch]) -> List[Row]:
    rows: List[Row] = []
    for batch in batches:
        rows.extend(batch.rows())
    return rows


class Emitter:
    """Delivers an output basket's content to subscribed clients.

    Each firing builds one :class:`DeliveryBatch`.  Clients are callables
    receiving a list of row tuples, or batch consumers (anything with a
    ``deliver_batch`` method) receiving the batch itself; channels can
    also subscribe, in which case rows are serialized to the textual wire
    format.  Rows are built only if a callable or channel needs them.
    The implicit ``dc_time`` column is stripped unless
    ``include_time=True``.
    """

    def __init__(
        self,
        name: str,
        source: Basket,
        include_time: bool = False,
        batch_size: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        priority: int = -10,
    ):
        self.name = name
        self.source = source
        self.include_time = include_time
        self.batch_size = batch_size
        self.priority = priority  # emitters run after queries by default
        # durability: the highest source sequence number ever delivered.
        # With a wal_sink attached it is logged (under the source lock)
        # on every activation; after recovery it suppresses re-delivery
        # of rows the deterministic replay regenerates — the
        # exactly-once mechanism.  -1 = nothing delivered yet.
        self.high_water_seq = -1
        self.wal_sink = None
        # subscriber lists are copy-on-write under _sub_lock: activate()
        # reads one immutable snapshot per firing, so a network session
        # may subscribe/unsubscribe concurrently with deliveries without
        # ever mutating a list a firing is iterating.  Each client entry
        # carries its bound ``deliver_batch`` (None for row callables),
        # resolved once at subscribe time
        self._sub_lock = threading.Lock()
        self._clients: List[
            Tuple[Subscriber, Optional[Callable[[DeliveryBatch], None]]]
        ] = []
        self._channels: List[Channel] = []
        self._gates: Tuple[Any, ...] = ()  # the clients' gates, same lock
        self._delivered = Tally()
        self.activations = 0
        self.channels_detached = 0
        self.deliveries_dropped = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self.metrics.counter(
            "datacell_emitter_delivered_total",
            "Result rows delivered to subscribers",
            ("emitter",),
        ).read_from(self._delivered, name)
        # labeled by the source basket: a continuous query's end-to-end
        # latency lives on its output basket (``<query>_out``)
        self._m_latency = self.metrics.histogram(
            "datacell_query_latency_seconds",
            "Monotonic insert-to-emit latency of delivered tuples",
            ("query",),
        ).labels(source.name)
        self._m_dropped = self.metrics.counter(
            "datacell_emitter_dropped_total",
            "Rows shed by subscriber-side bounded queues instead of "
            "delivered",
            ("emitter",),
        ).labels(name)
        self._measure_latency = self.metrics.enabled

    @property
    def total_delivered(self) -> int:
        """Result rows delivered, over every activation."""
        return self._delivered.value

    # ------------------------------------------------------------------
    def subscribe(self, client: Subscriber) -> None:
        """Add a callback client: a row callable, or a batch consumer
        with a ``deliver_batch(batch)`` method.  A client's ``gate`` (a
        place with ``has_room()``) holds the emitter back while full."""
        entry = (client, getattr(client, "deliver_batch", None))
        gate = getattr(client, "gate", None)
        with self._sub_lock:
            self._clients = self._clients + [entry]
            if gate is not None:
                self._gates = self._gates + (gate,)
                gate.watch(self.source.changed)

    def subscribe_channel(self, channel: Channel) -> None:
        """Add a channel client (textual delivery)."""
        with self._sub_lock:
            self._channels = self._channels + [channel]

    def unsubscribe(self, client: Subscriber) -> bool:
        """Remove a callback client; True iff it was subscribed.

        Safe while firings are in flight: a firing that already took its
        subscriber snapshot may deliver one final batch to the removed
        client; no later firing will.
        """
        with self._sub_lock:
            for i, (subscribed, _) in enumerate(self._clients):
                if subscribed == client:
                    self._clients = self._clients[:i] + self._clients[i + 1 :]
                    break
            else:
                return False
            gate = getattr(client, "gate", None)
            if gate is not None:
                self._gates = tuple(g for g in self._gates if g is not gate)
                gate.unwatch(self.source.changed)
                self.source.changed()  # no longer held back by it
        return True

    def unsubscribe_channel(self, channel: Channel) -> bool:
        """Remove a channel client; True iff it was subscribed."""
        with self._sub_lock:
            if channel not in self._channels:
                return False
            remaining = list(self._channels)
            remaining.remove(channel)
            self._channels = remaining
            return True

    def note_dropped(self, count: int) -> None:
        """Subscriber-side drop accounting (a bounded client queue shed
        ``count`` rows instead of delivering them)."""
        self.deliveries_dropped += count
        self._m_dropped.inc(count)

    @property
    def subscriber_count(self) -> int:
        return len(self._clients) + len(self._channels)

    # ------------------------------------------------------------------
    def input_places(self) -> Tuple[Basket]:
        """The source basket; a gate's freed room is relayed as its change."""
        return (self.source,)

    def enabled(self) -> bool:
        """Fires when results are waiting in the source basket and every
        gated subscriber has room for them."""
        if self.source.count < max(1, self.source.min_count):
            return False
        gates = self._gates
        return not gates or all(gate.has_room() for gate in gates)

    def activate(self) -> ActivationResult:
        """Consume waiting results and fan them out to all subscribers."""
        fresh_from = 0
        with self.source.lock:
            snapshot = self.source.drain()
            if snapshot.count and (
                self.wal_sink is not None or self.high_water_seq >= 0
            ):
                # replayed rows at or below the recovered high-water mark
                # were delivered before the crash: drop them here, inside
                # the lock, so the mark and the consumption stay atomic.
                # Seqs ascend: the rows above the mark are a suffix
                seqs = snapshot.seqs
                fresh_from = int(
                    seqs.searchsorted(self.high_water_seq, side="right")
                )
                self.high_water_seq = max(self.high_water_seq, int(seqs[-1]))
                if self.wal_sink is not None:
                    self.wal_sink.log_emit(self.name, self.high_water_seq)
        if self.wal_sink is not None:
            # a commit point: the batch's INSERT, FIRING and EMIT records
            # reach the disk (one fsync) before any subscriber sees it
            self.wal_sink.commit()
        batch = self._batch(snapshot, fresh_from)
        clients, channels = self._clients, self._channels
        for client, deliver_batch in clients:
            if deliver_batch is not None:
                deliver_batch(batch)
            else:
                client(batch.rows())
        for channel in channels:
            if channel.closed:
                # a dead peer (disconnected session, closed adapter)
                # detaches instead of poisoning every later firing
                if self.unsubscribe_channel(channel):
                    self.channels_detached += 1
                continue
            for row in batch.rows():
                channel.push(format_tuple(row))
        # shared encodings served this firing's subscribers; a collected
        # batch keeps only its columns (and rows, if they were built)
        batch._memo = None
        delivered = batch.count
        runs = snapshot.runs
        if snapshot.count and self._measure_latency:
            # insert→emit latency: monotonic now minus each tuple's
            # (propagated) monotonic origin stamp — immune to wall jumps;
            # one weighted observation per run of equal stamps
            now = time.monotonic()
            observe = self._m_latency.observe
            last = 0
            for end, stamp in zip(runs.ends, runs.stamps):
                observe(now - stamp, end - last)
                last = end
        self.activations += 1
        self._delivered.value += delivered
        return ActivationResult(
            fired=True,
            tuples_in=snapshot.count,
            tuples_out=delivered
            * max(1, len(self._clients) + len(self._channels)),
            consumed=snapshot.count,
            drained=True,  # the whole source was consumed
            trace=runs.first_token(),
        )

    def _batch(self, snapshot, start: int = 0) -> DeliveryBatch:
        """Snapshot → this firing's batch, sharing the snapshot's tails;
        a ``start`` drops the rows before it (recovery's fresh-rows
        filter).  The common case, 0, pays no slicing."""
        names: List[str] = []
        atoms: List[AtomType] = []
        tails: List[np.ndarray] = []
        for name, bat in zip(snapshot.names, snapshot.bats):
            if name == TIME_COLUMN and not self.include_time:
                continue
            names.append(name)
            atoms.append(bat.atom)
            tails.append(bat.tail[start:] if start else bat.tail)
        return DeliveryBatch(names, atoms, tails)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Emitter({self.name!r} <- {self.source.name!r}, "
            f"subscribers={self.subscriber_count})"
        )
