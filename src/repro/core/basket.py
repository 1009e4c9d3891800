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
  next_seq + 1, ...`` after the last buffered tuple, and nothing ever
  reorders the rows — a removal tombstones them in place, a compaction
  keeps the survivors in their order — so the hidden seq column is
  strictly ascending at all times.  Several steps rely on it: a
  ``since_seq`` snapshot is the suffix starting at
  ``searchsorted(seqs, since_seq, "right")``; :meth:`Basket.unseen_count`
  and :meth:`Basket.gc_shared` find their cut the same way; a
  snapshot's last seq is its largest; tuples a reader has not seen yet
  form a suffix; a stale snapshot's seqs are found by one search.

* **Consume by tombstone.**  The physical columns are append-only: a
  removal (consumption, load shedding, retention trimming, shared-reader
  GC) copies nothing, it sets the rows' bits in a dead-row mask and
  lowers the live :attr:`Basket.count`; a basket left with no live row
  starts over on empty columns (so does :meth:`Basket.consume_all`).
  The live rows are copied into new BATs only by a *compaction*: before
  an append when dead rows outnumber live ones, and before a reader that
  cannot skip dead rows takes the columns (:meth:`Basket.bat`,
  :meth:`Basket.bats`, :meth:`Basket.drain`).  ``generation`` moves only
  when physical positions do — a compaction or a start-over.  A snapshot
  records the generation it was cut at; while it is unchanged, snapshot
  position *p* maps to one physical row (``start + p`` for a view, the
  position it ``picked`` otherwise), so a factory — which holds the
  basket lock from snapshot to consume (Algorithm 1) — consumes by
  setting bits, and a whole-basket snapshot taken in full is an O(1)
  :meth:`Basket.consume_all`.  A snapshot from an older generation is
  consumed by sequence number instead (:meth:`Basket.consume_seqs`).
  Rows already dead are never removed or counted twice.

* **Snapshots are views.**  Positions below the physical count are
  never rewritten (appends write past it; a compaction or start-over
  swaps in new arrays), so a snapshot whose rows hold no tombstone is a
  read-only view of the basket's columns, not a copy.

* **Drain by adoption.**  A reader that takes everything (an emitter, a
  replicator) calls :meth:`Basket.drain`: the snapshot it gets *is* the
  basket's (compacted) columns, and the basket starts over with empty
  ones.

* **Empty baskets allocate nothing.**  A basket with no physical row
  holds its *blank* columns: zero-length BATs (and runs) made once per
  basket, shared by every start-over and never written.  An insert into
  an empty basket first swaps in new columns; a factory result appended
  to one *becomes* its columns (:meth:`Basket.append_result` adopts each
  result column's array where nothing else can write it, see
  :meth:`~repro.kernel.bat.BAT.handed_over`), so a drained output basket
  refilled by its factory copies nothing.
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

    Columns are re-based to a dense 0..n-1 head, so candidate lists
    produced by plans are directly usable as positions when telling the
    basket which tuples were consumed (:meth:`Basket.consume_positions`).
    When the rows it covers hold no tombstone, the columns are read-only
    views of one contiguous run of the basket's columns, the run starting
    at physical position ``start`` (from :meth:`Basket.drain`, the
    basket's former columns themselves); otherwise they are one gathered
    copy of the live rows, whose physical positions ``picked`` keeps.
    ``seqs`` carries the stable, ascending per-tuple sequence numbers for
    the same positions; ``runs`` the hidden arrival stamps and trace
    tokens of the same rows; ``generation`` the basket state the physical
    positions belong to.
    """

    def __init__(
        self,
        names: Sequence[str],
        bats: Sequence[BAT],
        seqs: np.ndarray,
        runs: Runs,
        generation: int = -1,
        start: int = 0,
        picked: Optional[np.ndarray] = None,
    ):
        self.names = list(names)
        self.bats = list(bats)
        self.seqs = seqs
        self.runs = runs
        self.generation = generation
        self.start = start
        self.picked = picked
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
    ingest_error = BasketError

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
        self._user_columns = self.schema.columns[:-1]  # not dc_time
        self.clock = clock or WallClock()
        # the blank columns of an empty basket (see the module docstring)
        self._blank = self._bats
        self._blank_seq = self._seq = BAT(AtomType.LNG)
        # hidden monotonic arrival stamps and trace tokens, one run per
        # appended batch, covering the same rows as ``_seq``: latency
        # measurement must survive wall-clock jumps, so ``dc_time`` (wall)
        # is user-facing and the stamps feed the histograms; a non-zero
        # token marks a sampled batch, so span causality survives basket
        # hops exactly like the origin stamp
        self._blank_runs = self._runs = Runs()
        self._next_seq = 0
        # tombstones: ``_dead[i]`` marks physical row ``i`` removed (rows
        # past the mask's end are live; ``None`` when nothing is dead),
        # and ``_ndead`` counts the marks
        self._dead: Optional[np.ndarray] = None
        self._ndead = 0
        # bumped whenever physical positions move (a compaction or a
        # start-over); a snapshot cut at the current generation still
        # maps its positions onto the basket's physical rows
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
    def count(self) -> int:
        """Live tuples: the physical rows less the tombstoned ones."""
        return self._seq.count - self._ndead

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
        depth = self._seq.count - self._ndead
        self._depth.value = depth
        if depth > self._high_water.value:
            self._high_water.value = depth

    # ------------------------------------------------------------------
    # schema helpers
    # ------------------------------------------------------------------
    @property
    def user_columns(self) -> List[ColumnDef]:
        """Schema without the implicit timestamp column."""
        return list(self._user_columns)

    def bat(self, column: str) -> BAT:
        """The BAT storing ``column``, compacted first: a reader of the
        columns cannot skip tombstoned rows."""
        if self._ndead:
            self._compact()
        return super().bat(column)

    def bats(self) -> List[BAT]:
        """All column BATs in schema order, compacted first."""
        if self._ndead:
            self._compact()
        return super().bats()

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
        ``capacity`` watermark is set).  All or nothing: every column is
        converted before the first is appended, so a batch with a bad
        row or value appends, logs and counts nothing.
        """
        rows = list(rows)
        if not rows:
            return 0
        arrays = self._row_arrays(self._user_columns, rows)
        return self._ingest(arrays, len(rows), timestamp, trace_token)

    def insert_columns(
        self,
        columns: Dict[str, Any],
        timestamp: Optional[float] = None,
        trace_token: int = 0,
    ) -> int:
        """Columnar bulk ingest (receptor fast path).

        ``columns`` covers the user columns only (storage arrays are
        taken as they are); ``dc_time`` and sequence numbers are filled
        in here.  All or nothing, as :meth:`insert_rows`.
        """
        arrays = self._column_arrays(self._user_columns, columns)
        return self._ingest(arrays, len(arrays[0]), timestamp, trace_token)

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Refused (and so is ``append_row``): a table's append would
        leave the rows without the sequence numbers, arrival stamps, WAL
        record and reader wake-up every basket row has."""
        raise BasketError(self._refused("append_rows"))

    def append_columns(self, columns: Dict[str, Any]) -> int:
        """Refused, as :meth:`append_rows`."""
        raise BasketError(self._refused("append_columns"))

    def _refused(self, method: str) -> str:
        return (
            f"{method} is a table append and skips basket {self.name!r}'s "
            "bookkeeping; ingest with insert_rows or insert_columns"
        )

    def _ingest(
        self,
        arrays: List[np.ndarray],
        n: int,
        timestamp: Optional[float],
        trace_token: int,
    ) -> int:
        """Append converted user columns of ``n`` rows, then stamp,
        sequence, WAL, shed and trim; returns the rows kept."""
        stamp = self.clock.now() if timestamp is None else float(timestamp)
        with self.lock:
            if 2 * self._ndead > self._seq.count:
                self._compact()
            if self._bats is self._blank:  # new columns to append into
                self._bats = {k: BAT(b.atom) for k, b in self._blank.items()}
            bats = self._bats
            for col, array in zip(self._user_columns, arrays):
                bats[col.name.lower()].append_array(array)
            bats[TIME_COLUMN].append_fill(stamp, n)
            self._sequence(n, time.monotonic(), trace_token)
            if self.wal_sink is not None:
                self._log_ingest(n, stamp)
            shed = (
                self._shed_if_over_capacity()
                if self.capacity is not None else 0
            )
            if self.retention is not None:
                self._trim_to_retention()
            self._record_depth()
        return n - shed

    def _sequence(self, n: int, mono: float, trace_token: int) -> None:
        """Give the ``n`` rows just appended their hidden columns — one
        run of arrival stamp and trace token, ascending seqs — count
        them in, and wake the readers."""
        seqs = np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
        if self._seq.count:
            self._seq.append_array(seqs)
            self._runs.append(self._seq.count, mono, trace_token)
        else:  # the basket's only rows: new hidden columns
            self._seq = BAT.adopt(AtomType.LNG, seqs)
            self._runs = Runs([n], [mono], [trace_token])
        self._next_seq += n
        self._inserted.value += n
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
            [(c.name.lower(), c.atom) for c in self._user_columns],
            [self._bats[c.name.lower()].tail[-n:] for c in self._user_columns],
        )

    def _shed_if_over_capacity(self) -> int:
        """Drop oldest tuples beyond the capacity watermark (load shedding)."""
        if self.capacity is None or self.count <= self.capacity:
            return 0
        shed = self._kill(self._oldest(self.count - self.capacity))
        self._shed.value += shed
        return shed

    def _trim_to_retention(self) -> int:
        """Ring-buffer retention (call under ``self.lock``): drop oldest
        rows beyond ``retention`` without counting them as shed — this is
        the bounded-history semantics of ``sys.*`` streams, not a load
        response."""
        if self.retention is None or self.count <= self.retention:
            return 0
        trimmed = self._kill(self._oldest(self.count - self.retention))
        self.total_trimmed += trimmed
        return trimmed

    # ------------------------------------------------------------------
    # snapshots & consumption
    # ------------------------------------------------------------------
    def snapshot(self, since_seq: Optional[int] = None) -> BasketSnapshot:
        """Current content (optionally only tuples with seq > ``since_seq``).

        One contiguous run of physical rows: the whole basket, or — seqs
        ascend — the suffix after the ``since_seq`` watermark.  Without a
        tombstone in it, the snapshot is a read-only view of the run (no
        copy); with one, it is one gathered copy of the run's live rows.
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
            dead = self._dead
            # count_nonzero: a fraction of any()'s reduction on a mask
            if dead is None or not np.count_nonzero(dead[start:n]):
                seqs = seqs[start:]
                seqs.flags.writeable = False
                return BasketSnapshot(
                    self._names,
                    [bat.view(start, n) for bat in self._bats.values()],
                    seqs, self._runs.cut(start, n), self.generation, start,
                )
            picked = self._live_rows(start)
            return BasketSnapshot(
                self._names,
                [bat.take_positions(picked) for bat in self._bats.values()],
                seqs[picked], self._runs.pick(picked), self.generation,
                start, picked,
            )

    def consume_all(self) -> int:
        """Remove every tuple (the bulk ``empty(input)`` of Algorithm 1)."""
        with self.lock:
            removed = self._seq.count - self._ndead
            self._start_over()
            self._note_removed(removed)
            return removed

    truncate = consume_all  # Table-compatible; also clears the seqs

    def drain(self) -> BasketSnapshot:
        """Take every tuple: :meth:`snapshot` then :meth:`consume_all`,
        without a copy unless rows are tombstoned — the snapshot adopts
        the basket's (compacted) columns, and the basket starts over with
        empty ones."""
        with self.lock:
            if self._ndead:
                self._compact()
            snapshot = BasketSnapshot(
                self._names, list(self._bats.values()), self._seq.tail,
                self._runs, self.generation,
            )
            self._start_over()
            self._note_removed(snapshot.count)
            return snapshot

    def consume_positions(
        self,
        snapshot: BasketSnapshot,
        positions: Optional[np.ndarray] = None,
    ) -> int:
        """Remove the ``snapshot`` tuples at ``positions`` (all of them
        when ``None``) — the basket-expression side effect (§2.6).

        ``positions`` index the snapshot, as the candidate list a plan's
        basket expression produced.  While the basket is still at the
        snapshot's generation they map to physical rows — shifted by the
        view's ``start``, or through the rows the snapshot ``picked`` —
        whose tombstones are set; a whole-basket view consumed in full
        is :meth:`consume_all`.  A snapshot from an older generation is
        consumed through :meth:`consume_seqs`.
        """
        if not snapshot.count:
            return 0
        with self.lock:
            if snapshot.generation != self.generation:
                seqs = snapshot.seqs
                if positions is not None:
                    seqs = seqs[np.asarray(positions, dtype=np.int64)]
                return self.consume_seqs(seqs)
            start, picked = snapshot.start, snapshot.picked
            if positions is None:
                if picked is not None:
                    rows: Any = picked
                    start = 0
                elif not start and snapshot.count == self._seq.count:
                    return self.consume_all()
                else:
                    rows = slice(0, snapshot.count)
            elif not len(positions):
                return 0
            else:
                rows = np.asarray(positions, dtype=np.int64)
                if picked is not None:
                    rows, start = picked[rows], 0
            removed = self._kill(rows, start)
            self._note_removed(removed)
            return removed

    def consume_seqs(self, seqs: np.ndarray) -> int:
        """Remove the tuples with the given sequence numbers (a snapshot
        the basket has compacted since, or one that is not this
        basket's); seqs no longer buffered are ignored."""
        if len(seqs) == 0:
            return 0
        with self.lock:
            held = self._seq.tail
            if not len(held):
                return 0
            seqs = np.asarray(seqs, dtype=np.int64)
            rows = np.minimum(held.searchsorted(seqs), len(held) - 1)
            rows = rows[held[rows] == seqs]
            removed = self._kill(rows) if len(rows) else 0
            self._note_removed(removed)
            return removed

    def _note_removed(self, removed: int) -> None:
        # a removal never raises the high water: only the depth moves
        self._consumed.value += removed
        self._depth.value = self._seq.count - self._ndead

    # ------------------------------------------------------------------
    # tombstones (every helper below runs under the lock)
    # ------------------------------------------------------------------
    def _kill(self, rows: Any, start: int = 0) -> int:
        """Tombstone the physical ``rows`` (an index array or a slice),
        counted from physical row ``start``; returns how many of them
        were live.  A basket left with no live row starts over on its
        blank columns, which copies nothing."""
        n = self._seq.count
        dead = self._mask(n)
        (dead[start:] if start else dead)[rows] = True
        ndead = int(np.count_nonzero(dead))
        removed = ndead - self._ndead
        if ndead == n:
            self._start_over()
        else:
            self._ndead = ndead
        return removed

    def _mask(self, n: int) -> np.ndarray:
        """The dead-row mask, grown to cover ``n`` physical rows."""
        dead = self._dead
        if dead is None or len(dead) < n:
            grown = np.zeros(
                n if dead is None else max(n, 2 * len(dead)), dtype=bool
            )
            if dead is not None:
                grown[: len(dead)] = dead
            self._dead = dead = grown
        return dead

    def _live_rows(self, start: int = 0) -> np.ndarray:
        """Physical positions of the live rows from ``start`` on."""
        n = self._seq.count
        live = np.flatnonzero(~self._mask(n)[start:n])
        if start:
            live += start
        return live

    def _oldest(self, k: int) -> Any:
        """Physical rows of the ``k`` oldest live tuples."""
        if self._dead is None:
            return slice(0, k)
        return self._live_rows()[:k]

    def _compact(self) -> None:
        """Swap in new BATs holding only the live rows: one copy per
        column, the hidden runs re-cut, the tombstones forgotten.  An
        append runs it first when dead rows outnumber live ones
        (``2 * _ndead > _seq.count``), a column reader always.  New
        BATs rather than a compaction in place: snapshot views and
        one-time queries may still hold the old ones."""
        with self.lock:  # re-entrant; a reader may call without it
            if not self._ndead:
                return
            n = self._seq.count
            live = np.flatnonzero(~self._mask(n)[:n])
            self._bats = {
                k: b.take_positions(live) for k, b in self._bats.items()
            }
            self._seq = self._seq.take_positions(live)
            self._runs = self._runs.pick(live)
            self._dead = None
            self._ndead = 0
            self.generation += 1

    def _start_over(self) -> None:
        """The blank columns and no tombstones: no copy, no allocation."""
        self._bats = self._blank
        self._seq = self._blank_seq
        self._runs = self._blank_runs
        self._dead = None
        self._ndead = 0
        self.generation += 1

    def frontier_seq(self) -> int:
        """The highest sequence number ever assigned (-1 when empty)."""
        with self.lock:
            return self._next_seq - 1

    def nbytes(self) -> int:
        """Estimated bytes buffered: every schema column plus the hidden
        sequence column, over the live rows.  The arrival stamps and
        trace tokens are stored per run, not per row, and are not
        charged.  O(columns), inherits the per-BAT estimate contract."""
        return self.count * self.row_nbytes()

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
                    self._bats[c.name.lower()].element_nbytes()
                    for c in self.schema
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
            seqs, arrays = self._live_columns()
            parts: List[str] = [
                repr(self._next_seq),
                repr(seqs.tolist()),
                repr(sorted(self._readers.items())),
            ]
            for col, array in zip(self.schema, arrays):
                parts.append(col.name.lower())
                parts.append(repr(array.tolist()))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def _live_columns(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The live rows' seqs and schema-column tails (under the lock):
        the physical tails themselves without a tombstone, else one
        gathered copy — reading them leaves the basket as it is."""
        bats = self._bats
        columns = [self._seq] + [bats[c.name.lower()] for c in self.schema]
        if not self._ndead:
            tails = [bat.tail for bat in columns]
        else:
            live = self._live_rows()
            tails = [bat.tail[live] for bat in columns]
        return tails[0], tails[1:]

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
            seqs, arrays = self._live_columns()
            if not self._ndead:  # the physical tails, not a gathered copy
                seqs, arrays = seqs.copy(), [a.copy() for a in arrays]
            return BasketState(
                columns=[(c.name.lower(), c.atom) for c in self.schema],
                arrays=arrays,
                seqs=seqs,
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
            self._dead = None
            self._ndead = 0
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
                first = self._live_rows()[0] if self._ndead else 0
                self._readers[reader] = int(self._seq.tail[first]) - 1
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
            cut = int(seqs.searchsorted(self._readers[reader], side="right"))
            unseen = len(seqs) - cut
            if self._ndead:
                unseen -= int(np.count_nonzero(self._dead[cut:len(seqs)]))
            return unseen

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
            removed = self._kill(slice(0, cut)) if cut else 0
            if removed:
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
        mono = time.monotonic() if mono is None else float(mono)
        with self.lock:
            if not self._seq.count:
                # an empty basket adopts the result's columns
                bats = {
                    name: bat.handed_over(blank.atom)
                    for (name, blank), bat in zip(
                        self._blank.items(), result.bats
                    )
                }
                if not provides_time:
                    times = np.empty(rows_added)
                    times.fill(stamp)
                    bats[TIME_COLUMN] = BAT.adopt(AtomType.TIMESTAMP, times)
                self._bats = bats
            else:
                if 2 * self._ndead > self._seq.count:
                    self._compact()
                for bat, appended in zip(self._bats.values(), result.bats):
                    bat.append_bat(appended)
                if not provides_time:
                    self._bats[TIME_COLUMN].append_fill(stamp, rows_added)
            self._sequence(rows_added, mono, trace_token)
            if self.capacity is not None:
                self._shed_if_over_capacity()
            if self.retention is not None:
                self._trim_to_retention()
            self._record_depth()
        return rows_added

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Basket({self.name!r}, rows={self.count}, in={self.total_in}, "
            f"out={self.total_out}, readers={len(self._readers)})"
        )
