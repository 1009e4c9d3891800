"""Baskets — the key data structure of the DataCell (paper §2.2).

A basket holds a portion of a stream as a temporary main-memory table.  It
aligns with SQL'03 table semantics as much as possible; the prime
differences are the retention period (a tuple is removed once consumed by
all relevant continuous queries) and the implicit ``dc_time`` column
stamping each tuple's arrival time.

Implementation notes
--------------------
* A basket *is* a catalog :class:`~repro.kernel.catalog.Table` (the paper
  stores baskets as ordinary BATs), extended with:

  - the implicit ``dc_time`` timestamp column;
  - a hidden, monotonically increasing per-tuple sequence number used to
    give tuples a stable identity across consume cycles;
  - hidden monotonic arrival stamps and trace tokens, stored per batch
    as run-end encoded :class:`~repro.core.runs.Runs`, not per row;
  - consumption primitives (:meth:`Basket.consume_all`,
    :meth:`Basket.consume_positions`, and :meth:`Basket.consume_seqs` for
    snapshots the basket has moved on from);
  - per-reader cursors implementing the *shared baskets* strategy, where a
    tuple stays in the basket until every registered reader has seen it.

* There is deliberately **no arrival order guarantee** beyond what the
  caller imposes: the paper treats a basket as a multi-set and considers
  arrival order a semantic issue.  Sequence numbers reflect ingest order at
  this node, which window operators may use, but nothing reorders tuples.

* **Sequence numbers ascend.**  Every append stamps ``next_seq,
  next_seq + 1, ...`` after the last buffered tuple, and every removal
  (consumption, shedding, retention trimming, shared-reader GC) keeps the
  survivors in their order — so the hidden seq column is strictly
  ascending at all times.  Several steps rely on it: a ``since_seq``
  snapshot is the contiguous suffix starting at
  ``searchsorted(seqs, since_seq, "right")``; :meth:`Basket.unseen_count`
  and :meth:`Basket.gc_shared` find their cut the same way; a snapshot's
  last seq is its largest; tuples a reader has not seen yet form a suffix.

* **Consume by position.**  Every mutation bumps the basket's
  ``generation``.  A snapshot records the generation it was cut at and
  the basket position of its first row (``start``).  While the generation
  is unchanged, snapshot position *p* is basket position ``start + p``; a
  factory holds the basket lock from snapshot to consume (Algorithm 1),
  so its consumption is one boolean keep-mask over the basket, or an O(1)
  :meth:`Basket.consume_all` when it takes a whole-basket snapshot in
  full.  A snapshot from an older generation is consumed by sequence
  number instead (:meth:`Basket.consume_seqs`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BasketError
from ..kernel.bat import BAT
from ..kernel.catalog import ColumnDef, Schema, Table
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from .clock import Clock, WallClock
from .places import Place
from .runs import Runs

__all__ = ["Basket", "BasketSnapshot", "TIME_COLUMN"]

TIME_COLUMN = "dc_time"


class BasketSnapshot:
    """An immutable view of a basket's content at activation time.

    Columns are one copy of a contiguous run of the basket's rows,
    re-based to a dense 0..n-1 head, so candidate lists produced by plans
    are directly usable as positions when telling the basket which tuples
    were consumed (:meth:`Basket.consume_positions`).  ``seqs`` carries
    the stable, ascending per-tuple sequence numbers for the same
    positions; ``runs`` the hidden arrival stamps and trace tokens of
    the same rows, cut to the snapshot; ``generation`` and ``start`` say
    which basket state the snapshot was cut from and where in it row 0
    sat.
    """

    def __init__(
        self,
        names: Sequence[str],
        bats: Sequence[BAT],
        seqs: np.ndarray,
        runs: Runs,
        generation: int = -1,
        start: int = 0,
    ):
        self.names = list(names)
        self.bats = list(bats)
        self.seqs = seqs
        self.runs = runs
        self.generation = generation
        self.start = start
        self.count = len(seqs)

    def __len__(self) -> int:
        return self.count

    def column(self, name: str) -> BAT:
        try:
            return self.bats[self.names.index(name.lower())]
        except ValueError:
            raise BasketError(f"snapshot has no column {name!r}") from None

    def as_result(self) -> ResultSet:
        return ResultSet(self.names, self.bats)

    def env(self, prefix: str) -> Dict[str, BAT]:
        """Bind columns into a MAL environment as ``prefix.column``."""
        return {f"{prefix}.{n}": b for n, b in zip(self.names, self.bats)}


class Basket(Table, Place):
    """A stream buffer with consumption semantics (see module docstring).

    As its readers' input place, every append and ``min_count`` change
    wakes them (:class:`~repro.core.places.Place`).

    ``weighted`` marks weighted-delta (Z-set) mode: the last user column
    is ``dc_weight`` and each row is an insert (+1) or retract (−1) of
    the rest of the row — the output representation of incremental
    circuit plans (:mod:`repro.incremental`).  The flag is advisory
    metadata for consumers (``fetch_integrated``, tooling); storage and
    consumption semantics are unchanged.
    """

    weighted = False

    def __init__(
        self,
        name: str,
        columns: Sequence[Tuple[str, AtomType]],
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if any(col[0].lower() in (TIME_COLUMN, "dc_seq") for col in columns):
            raise BasketError(
                f"column names {TIME_COLUMN!r}/'dc_seq' are reserved"
            )
        defs = [ColumnDef(n, a) for n, a in columns]
        defs.append(ColumnDef(TIME_COLUMN, AtomType.TIMESTAMP))
        super().__init__(name, Schema(defs), is_basket=True)
        self._names = [c.name.lower() for c in self.schema]
        self.clock = clock or WallClock()
        self._seq = BAT(AtomType.LNG)
        # hidden monotonic arrival stamps and trace tokens, one run per
        # appended batch, covering the same rows as ``_seq``: latency
        # measurement must survive wall-clock jumps, so ``dc_time`` (wall)
        # is user-facing and the stamps feed the histograms; a non-zero
        # token marks a sampled batch, so span causality survives basket
        # hops exactly like the origin stamp
        self._runs = Runs()
        self._next_seq = 0
        # bumped by every mutation; a snapshot cut at the current
        # generation still maps its positions 1:1 onto the basket's
        self.generation = 0
        self._min_count = 1
        self.capacity: Optional[int] = None  # load-shedding high watermark
        # system streams (repro.obs.sysstreams): reserved sys.* baskets
        # are exempt from WAL capture, checkpoints, and load shedding;
        # instead ``retention`` bounds them as a ring buffer — oldest
        # rows beyond it are trimmed silently, never counted as shed
        self.is_system = False
        self.retention: Optional[int] = None
        self.total_trimmed = 0
        # durability hook: when a DurabilityManager is attached, every
        # ingested batch is write-ahead logged at this boundary (before
        # load shedding, which replay re-applies deterministically)
        self.wal_sink = None
        self._readers: Dict[str, int] = {}
        self._row_nbytes: Optional[int] = None  # row_nbytes() cache
        # statistics, kept under the basket lock; the registry reads them
        # when it exposes the basket's series
        self._inserted = Tally()
        self._consumed = Tally()
        self._shed = Tally()
        self._depth = Tally()
        self._high_water = Tally()
        self.metrics = metrics if metrics is not None else default_registry()
        m = self.metrics
        m.counter(
            "datacell_basket_inserted_total",
            "Tuples inserted into the basket",
            ("basket",),
        ).read_from(self._inserted, name)
        m.counter(
            "datacell_basket_consumed_total",
            "Tuples removed from the basket by consumption",
            ("basket",),
        ).read_from(self._consumed, name)
        m.counter(
            "datacell_basket_shed_total",
            "Tuples dropped by load shedding",
            ("basket",),
        ).read_from(self._shed, name)
        m.gauge(
            "datacell_basket_depth",
            "Tuples currently buffered",
            ("basket",),
        ).read_from(self._depth, name)
        m.gauge(
            "datacell_basket_high_water",
            "Maximum depth ever observed",
            ("basket",),
        ).read_from(self._high_water, name)

    @property
    def min_count(self) -> int:
        """The scheduler's firing threshold (paper §2.4)."""
        return self._min_count

    @min_count.setter
    def min_count(self, value: int) -> None:
        self._min_count = value
        self.changed()  # a lower threshold may enable a reader

    @property
    def total_in(self) -> int:
        """Tuples ever appended (ingest and factory output)."""
        return self._inserted.value

    @property
    def total_out(self) -> int:
        """Tuples ever removed by consumption."""
        return self._consumed.value

    @property
    def total_shed(self) -> int:
        """Tuples ever dropped by load shedding."""
        return self._shed.value

    @property
    def high_water(self) -> int:
        """The largest depth ever recorded."""
        return self._high_water.value

    def _record_depth(self) -> None:
        """Refresh depth and high water (call under ``self.lock``)."""
        depth = self.count
        self._depth.value = depth
        if depth > self._high_water.value:
            self._high_water.value = depth

    # ------------------------------------------------------------------
    # schema helpers
    # ------------------------------------------------------------------
    @property
    def user_columns(self) -> List[ColumnDef]:
        """Schema without the implicit timestamp column."""
        return [c for c in self.schema if c.name != TIME_COLUMN]

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def insert_rows(
        self,
        rows: Iterable[Sequence[Any]],
        timestamp: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Append user-arity tuples, stamping arrival time and sequence.

        Returns the number of tuples appended (after load shedding, if a
        ``capacity`` watermark is set).
        """
        rows = list(rows)
        if not rows:
            return 0
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        user_cols = self.user_columns
        arity = len(user_cols)
        for row in rows:
            if len(row) != arity:
                raise BasketError(
                    f"basket {self.name!r}: row arity {len(row)} != {arity}"
                )
        with self.lock:
            # columnar ingest: transpose once, append one array per column
            columns = list(zip(*rows))
            for col, values in zip(user_cols, columns):
                self.bat(col.name).append_many(values)
            n = len(rows)
            shed = self._ingested(n, stamp, trace_token)
        return n - shed

    def insert_columns(
        self,
        columns: Dict[str, np.ndarray],
        timestamp: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Columnar bulk ingest (receptor fast path).

        ``columns`` covers the user columns only; ``dc_time`` and sequence
        numbers are filled in here.
        """
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        user_names = set(self._names[:-1])  # dc_time is the last column
        provided = {k.lower() for k in columns}
        if provided != user_names:
            raise BasketError(
                f"bulk insert must cover exactly the user columns "
                f"{sorted(user_names)}, got {sorted(provided)}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise BasketError("bulk insert arrays differ in length")
        n = lengths.pop()
        with self.lock:
            for name, values in columns.items():
                self.bat(name).append_array(np.asarray(values))
            shed = self._ingested(n, stamp, trace_token)
        return n - shed

    def _ingested(self, n: int, stamp: float, trace_token: int) -> int:
        """Finish an ingest whose user columns are appended (under the
        lock): stamp, sequence, WAL, shed, trim.  Returns rows shed."""
        self.bat(TIME_COLUMN).append_fill(stamp, n)
        self._sequence(n, time.monotonic(), trace_token)
        if self.wal_sink is not None:
            self._log_ingest(n, stamp)
        shed = self._shed_if_over_capacity()
        self._trim_to_retention()
        self._record_depth()
        return shed

    def _sequence(self, n: int, mono: float, trace_token: int) -> None:
        """Give the ``n`` rows just appended their hidden columns — one
        run of arrival stamp and trace token, ascending seqs — count
        them in, and wake the readers."""
        self._seq.append_array(
            np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
        )
        self._runs.append(len(self._seq), mono, trace_token)
        self._next_seq += n
        self._inserted.value += n
        self.generation += 1
        self.changed()

    def _log_ingest(self, n: int, stamp: float) -> None:
        """WAL the batch just appended (call under ``self.lock``).

        Reads the freshly appended tails so the logged arrays carry the
        coerced storage representation, and runs before shedding so the
        log is the pre-shed ground truth (replay re-sheds identically).
        Only *ingested* batches are logged — factory output appended via
        :meth:`append_result` is derived state, recomputed by replay.
        """
        if n <= 0:
            return
        self.wal_sink.log_insert(
            self.name,
            stamp,
            [(c.name.lower(), c.atom) for c in self.user_columns],
            [self.bat(c.name).tail[-n:] for c in self.user_columns],
        )

    def _shed_if_over_capacity(self) -> int:
        """Drop oldest tuples beyond the capacity watermark (load shedding)."""
        if self.capacity is None or self.count <= self.capacity:
            return 0
        overflow = self.count - self.capacity
        self._rebuild_keeping(slice(overflow, None), self.capacity)
        self._shed.value += overflow
        return overflow

    def _trim_to_retention(self) -> int:
        """Ring-buffer retention (call under ``self.lock``): drop oldest
        rows beyond ``retention`` without counting them as shed — this is
        the bounded-history semantics of ``sys.*`` streams, not a load
        response."""
        if self.retention is None or self.count <= self.retention:
            return 0
        overflow = self.count - self.retention
        self._rebuild_keeping(slice(overflow, None), self.retention)
        self.total_trimmed += overflow
        return overflow

    # ------------------------------------------------------------------
    # snapshots & consumption
    # ------------------------------------------------------------------
    def snapshot(self, since_seq: Optional[int] = None) -> BasketSnapshot:
        """Current content (optionally only tuples with seq > ``since_seq``).

        One copy per column of one contiguous run: the whole basket, or —
        seqs ascend — the suffix after the ``since_seq`` watermark.
        Caller should hold the basket lock for a consistent multi-column
        view; factories do (Algorithm 1 locks before reading).
        """
        with self.lock:
            seqs = self._seq.tail
            n = len(seqs)
            start = (
                0 if since_seq is None
                else int(seqs.searchsorted(since_seq, side="right"))
            )
            bats = [bat.slice(start, n, 0) for bat in self._bats.values()]
            return BasketSnapshot(
                self._names, bats, seqs[start:].copy(),
                self._runs.cut(start, n), self.generation, start,
            )

    def consume_all(self) -> int:
        """Remove every tuple (the bulk ``empty(input)`` of Algorithm 1)."""
        with self.lock:
            removed = self.count
            self._bats = {k: BAT(b.atom) for k, b in self._bats.items()}
            self._seq = BAT(AtomType.LNG)
            self._runs = Runs()
            self.generation += 1
            self._note_removed(removed)
            return removed

    truncate = consume_all  # Table-compatible; also clears the seqs

    def consume_positions(
        self,
        snapshot: BasketSnapshot,
        positions: Optional[np.ndarray] = None,
    ) -> int:
        """Remove the ``snapshot`` tuples at ``positions`` (all of them
        when ``None``) — the basket-expression side effect (§2.6).

        ``positions`` index the snapshot, as the candidate list a plan's
        basket expression produced.  While the basket is still at the
        snapshot's generation they are basket positions shifted by
        ``snapshot.start``, so the removal is one boolean keep-mask and
        no sequence-number search; a whole-basket snapshot consumed in
        full is :meth:`consume_all`.  A snapshot from an older generation
        is consumed through :meth:`consume_seqs`.
        """
        if not snapshot.count:
            return 0
        with self.lock:
            if snapshot.generation != self.generation:
                seqs = snapshot.seqs
                if positions is not None:
                    seqs = seqs[np.asarray(positions, dtype=np.int64)]
                return self.consume_seqs(seqs)
            start = snapshot.start
            if positions is None:
                if not start:
                    return self.consume_all()
                keep: Any = slice(0, start)
                kept = start
            else:
                if not len(positions):
                    return 0
                index = np.asarray(positions, dtype=np.int64)
                keep = np.empty(len(self._seq), dtype=bool)
                keep.fill(True)
                keep[index + start if start else index] = False
                kept = int(np.count_nonzero(keep))
            return self._remove(keep, kept)

    def consume_seqs(self, seqs: np.ndarray) -> int:
        """Remove the tuples with the given sequence numbers (a snapshot
        the basket has changed since, or one that is not this basket's)."""
        if len(seqs) == 0:
            return 0
        with self.lock:
            keep = ~np.isin(self._seq.tail, np.asarray(seqs, dtype=np.int64))
            return self._remove(keep, int(np.count_nonzero(keep)))

    def _remove(self, keep: Any, kept: int) -> int:
        """Keep the ``kept`` rows ``keep`` selects; count the rest out."""
        removed = self.count - kept
        if removed:
            self._rebuild_keeping(keep, kept)
        self._note_removed(removed)
        return removed

    def _note_removed(self, removed: int) -> None:
        self._consumed.value += removed
        self._record_depth()

    def _rebuild_keeping(self, keep: Any, kept: int) -> None:
        """Swap in new BATs holding only the ``kept`` rows ``keep``
        selects (under the lock).

        ``keep`` selects sequenced positions: a boolean mask or a slice.
        Each column is copied once, by the selection; the hidden runs are
        re-cut.
        """
        n = len(self._seq)
        view = isinstance(keep, slice)  # basic slicing does not copy

        def select(bat: BAT) -> BAT:
            part = bat.tail[:n][keep]
            return BAT.adopt(bat.atom, part.copy() if view else part)

        self._bats = {k: select(b) for k, b in self._bats.items()}
        self._seq = select(self._seq)
        self._runs = self._runs.keep(keep, kept)
        self.generation += 1

    def frontier_seq(self) -> int:
        """The highest sequence number ever assigned (-1 when empty)."""
        with self.lock:
            return self._next_seq - 1

    def nbytes(self) -> int:
        """Estimated bytes buffered: every schema column's BAT plus the
        hidden sequence BAT.  The arrival stamps and trace tokens are
        stored per run, not per row, and are not charged.  O(columns),
        inherits the per-BAT estimate contract."""
        with self.lock:
            total = sum(self.bat(c.name).nbytes() for c in self.schema)
            return total + self._seq.nbytes()

    def row_nbytes(self) -> int:
        """Estimated bytes per buffered tuple — the ``nbytes()`` contract
        divided out.  Column dtypes are fixed at construction, so the
        width is computed once and cached; the resource accountant
        charges ``rows * row_nbytes()`` per batch without walking columns
        on the hot path."""
        width = self._row_nbytes
        if width is None:
            with self.lock:
                width = sum(
                    self.bat(c.name).element_nbytes() for c in self.schema
                )
                width += self._seq.element_nbytes()
            self._row_nbytes = width
        return width

    def state_digest(self) -> str:
        """A stable hash of the basket's observable state.

        Covers buffered rows (all columns including ``dc_time``), their
        sequence numbers, the next-sequence frontier, and every reader
        cursor — everything that determines future scheduling decisions.
        Two baskets with equal digests are indistinguishable to the
        engine, which is how the simulation harness asserts that a
        ``(seed, policy, fault plan)`` episode is bit-reproducible.
        Hidden monotonic stamps are deliberately excluded: they are real
        wall-time and would differ across otherwise identical runs.

        Stability contract (the durability subsystem depends on it):
        the digest is a pure function of ``(next_seq, seq column,
        reader cursors, every schema column tail including dc_time)``
        and of nothing else — not monotonic stamps, not trace tokens,
        not the in/out/shed statistics counters, not BAT capacity or
        generation.  Exporting a basket's state and importing it into a
        same-schema basket therefore reproduces the digest exactly,
        which is how recovery tests assert post-recovery state equals
        the pre-crash checkpoint.  Changing what the digest covers
        invalidates checkpoint-equality comparisons across versions;
        extend it only with state that genuinely alters future engine
        behaviour, and update ``docs/durability.md`` when you do.
        """
        import hashlib

        with self.lock:
            parts: List[str] = [
                repr(self._next_seq),
                repr(self._seq.tail.tolist()),
                repr(sorted(self._readers.items())),
            ]
            for col in self.schema:
                parts.append(col.name.lower())
                parts.append(repr(self.bat(col.name).tail.tolist()))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    # ------------------------------------------------------------------
    # durability export/import (checkpoint cut <-> recovery restore)
    # ------------------------------------------------------------------
    def export_state(self):
        """Copy everything :meth:`state_digest` covers, for a checkpoint.

        The checkpointer calls this while holding every basket lock (the
        engine-wide cut); the returned arrays are copies, so disk I/O
        can happen after the locks are released.
        """
        from ..durability.checkpoint import BasketState

        with self.lock:
            return BasketState(
                columns=[(c.name.lower(), c.atom) for c in self.schema],
                arrays=[self.bat(c.name).tail.copy() for c in self.schema],
                seqs=self._seq.tail.copy(),
                next_seq=self._next_seq,
                readers=dict(self._readers),
                total_in=self.total_in,
                total_out=self.total_out,
                total_shed=self.total_shed,
            )

    def import_state(self, state) -> None:
        """Replace this basket's content with a checkpointed state.

        The basket must have been created with the same schema (recovery
        restores state into a rebuilt topology, it does not create
        schema).  Hidden monotonic stamps and trace tokens are reborn
        "now"/unsampled: both are explicitly outside the digest's
        stability contract.
        """
        expected = [(c.name.lower(), c.atom) for c in self.schema]
        if list(state.columns) != expected:
            raise BasketError(
                f"basket {self.name!r}: checkpoint schema "
                f"{state.columns} != live schema {expected}"
            )
        with self.lock:
            new_bats: Dict[str, BAT] = {}
            for (col_name, atom), array in zip(state.columns, state.arrays):
                bat = BAT(atom)
                bat.append_array(np.asarray(array))
                new_bats[col_name] = bat
            self.replace_bats(new_bats)
            seq_bat = BAT(AtomType.LNG)
            seq_bat.append_array(np.asarray(state.seqs, dtype=np.int64))
            self._seq = seq_bat
            self._runs = Runs()
            if seq_bat.count:
                self._runs.append(seq_bat.count, time.monotonic(), 0)
            self._next_seq = int(state.next_seq)
            self._readers = dict(state.readers)
            self._inserted.value = int(state.total_in)
            self._consumed.value = int(state.total_out)
            self._shed.value = int(state.total_shed)
            self.generation += 1
            self._record_depth()
        self.changed()

    # ------------------------------------------------------------------
    # shared-baskets reader protocol (paper §2.5, second strategy)
    # ------------------------------------------------------------------
    def register_reader(self, reader: str) -> None:
        """Register a factory as a shared reader of this basket.

        A new reader sees everything currently buffered plus all future
        tuples; tuples already consumed before registration are gone (a
        newly arriving query joins the live stream, paper §1).
        """
        with self.lock:
            if reader in self._readers:
                raise BasketError(
                    f"reader {reader!r} already registered on {self.name!r}"
                )
            if self.count:
                self._readers[reader] = int(self._seq.tail[0]) - 1
            else:
                self._readers[reader] = self._next_seq - 1

    def unregister_reader(self, reader: str) -> None:
        with self.lock:
            self._readers.pop(reader, None)
            self.gc_shared()

    def readers(self) -> List[str]:
        return list(self._readers)

    def read_new(self, reader: str) -> BasketSnapshot:
        """Tuples this reader has not yet seen (does NOT advance the cursor)."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            return self.snapshot(since_seq=self._readers[reader])

    def advance_reader(self, reader: str, upto_seq: int) -> None:
        """Mark tuples up to ``upto_seq`` as seen by ``reader``."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            self._readers[reader] = max(self._readers[reader], int(upto_seq))

    def unseen_count(self, reader: str) -> int:
        """How many buffered tuples the reader has not seen yet."""
        with self.lock:
            if reader not in self._readers:
                raise BasketError(
                    f"reader {reader!r} not registered on {self.name!r}"
                )
            seqs = self._seq.tail
            cursor = self._readers[reader]
            return len(seqs) - int(seqs.searchsorted(cursor, side="right"))

    def gc_shared(self) -> int:
        """Drop tuples every registered reader has seen (low-water mark).

        Implements "the shared baskets strategy removes the tuples from a
        shared input basket only once all relevant factories have seen it".
        Returns the number of tuples physically removed.
        """
        with self.lock:
            if not self._readers or self.count == 0:
                return 0
            seqs = self._seq.tail
            cut = int(seqs.searchsorted(min(self._readers.values()), "right"))
            removed = self.count - (len(seqs) - cut)
            if removed:
                self._rebuild_keeping(slice(cut, None), len(seqs) - cut)
                self._note_removed(removed)
            return removed

    # ------------------------------------------------------------------
    def append_result(
        self,
        result: ResultSet,
        timestamp: Optional[float] = None,
        mono: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Append a factory's result set (user columns) to this basket.

        ``mono`` is the monotonic *origin* stamp to credit the appended
        tuples with: factories pass the earliest arrival stamp of the
        inputs that produced this result, so insert→emit latency survives
        through intermediate baskets.  ``None`` stamps "now" (tuples born
        here).  ``trace_token`` likewise forwards the sampled trace token
        of the inputs so span causality survives basket hops.
        """
        rows_added = result.count
        if rows_added == 0:
            return 0
        n_user = len(self._names) - 1
        provides_time = len(result.names) == n_user + 1
        if len(result.names) != n_user and not provides_time:
            raise BasketError(
                f"result arity {len(result.names)} does not match basket "
                f"{self.name!r} ({n_user} user columns)"
            )
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        with self.lock:
            for bat, appended in zip(self._bats.values(), result.bats):
                bat.append_bat(appended)
            if not provides_time:
                self.bat(TIME_COLUMN).append_fill(stamp, rows_added)
            self._sequence(
                rows_added,
                time.monotonic() if mono is None else float(mono),
                trace_token,
            )
            self._shed_if_over_capacity()
            self._trim_to_retention()
            self._record_depth()
        return rows_added

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Basket({self.name!r}, rows={self.count}, in={self.total_in}, "
            f"out={self.total_out}, readers={len(self._readers)})"
        )
