"""Windowed query processing (paper §3.1).

Window queries delimit the unbounded stream so blocking operators stay
feasible.  The DataCell does **not** add windowed operators to the kernel;
windows are realized at the query-plan/scheduling level, on top of plain
relational primitives — exactly the paper's design goal.

One plan evaluates every window aggregate, :class:`WindowAggregatePlan`.
Its unit is the paper's basic window (Zhu & Shasha [25]), here called a
*pane*: a window of size ``w`` sliding by ``s`` is cut into panes of
``bw = gcd(w, s)`` tuples (COUNT) or seconds (TIME).  Each snapshot is
reduced once into a table of per-(pane, group) partials, and a window is
the fold of the ``w/bw`` panes it covers, so a tuple is aggregated once
however much the windows overlap.  In DBSP terms (PAPERS.md) the window
is an integrated collection: each entering pane is added, each leaving
pane retracted.  Full re-evaluation survives only as the differential
reference, :class:`repro.baselines.reeval.ReEvalWindowAggregatePlan`.

Window boundaries are aligned to the stream origin: count window ``k``
covers tuple positions ``[k*slide, k*slide + size)``; time window ``k``
covers ``[k*slide, k*slide + size)`` seconds.  A time window is complete
once the watermark (max ingest timestamp seen) reaches its end; a tuple
older than the open window's start is late and dropped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..durability.serde import (
    decode_column,
    encode_column,
    frames_with_tail,
    pack_frame,
)
from ..errors import DataCellError
from ..kernel.bat import BAT, bat_from_values
from ..kernel.group import group
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType, nil_mask, numpy_dtype
from .basket import BasketSnapshot, TIME_COLUMN
from .factory import ContinuousPlan, PlanOutput

__all__ = [
    "WindowMode",
    "WindowSpec",
    "WindowAggregatePlan",
    "SlidingWindowJoinPlan",
    "basic_window_width",
]


class WindowMode(enum.Enum):
    COUNT = "count"
    TIME = "time"


@dataclass(frozen=True)
class WindowSpec:
    """A (sliding) window definition.

    ``slide == size`` is a tumbling window.  For COUNT mode both values are
    tuple counts (ints); for TIME mode they are seconds.
    """

    mode: WindowMode
    size: float
    slide: Optional[float] = None

    def __post_init__(self) -> None:
        slide = self.size if self.slide is None else self.slide
        object.__setattr__(self, "slide", slide)
        if self.size <= 0 or slide <= 0:
            raise DataCellError("window size and slide must be positive")
        if slide > self.size:
            raise DataCellError(
                "slide larger than window size would skip tuples"
            )
        if self.mode is WindowMode.COUNT:
            if int(self.size) != self.size or int(slide) != slide:
                raise DataCellError("count windows need integer size/slide")

    @property
    def tumbling(self) -> bool:
        return self.slide == self.size

    def window_start(self, k: int) -> float:
        return k * self.slide

    def window_end(self, k: int) -> float:
        return k * self.slide + self.size


def basic_window_width(spec: WindowSpec) -> float:
    """The basic-window (pane) width ``bw = gcd(size, slide)``.

    For TIME mode the gcd is computed on microsecond-scaled integers so
    fractional second sizes still partition exactly.
    """
    if spec.mode is WindowMode.COUNT:
        return float(math.gcd(int(spec.size), int(spec.slide)))
    scale = 1_000_000
    a = int(round(spec.size * scale))
    b = int(round(spec.slide * scale))
    return math.gcd(a, b) / scale


def _aggregate_atom(name: str) -> AtomType:
    return AtomType.LNG if name in ("count", "count_star") else AtomType.DBL


def _key_list(atom: AtomType, keys: np.ndarray) -> List[Any]:
    """Hashable group keys: storage values, with every NIL as ``None``
    (a DBL NIL is NaN, which never equals itself)."""
    return [
        None if nil else key
        for key, nil in zip(keys.tolist(), nil_mask(atom, keys).tolist())
    ]


class _WindowAggregateBase(ContinuousPlan):
    """Configuration and output schema, shared with the re-eval reference.

    ``group_atom`` is the atom of the group column: keys keep it from
    basket to output row.
    """

    def __init__(
        self,
        input_basket: str,
        value_column: str,
        aggregates: Sequence[str],
        spec: WindowSpec,
        output_basket: str,
        group_column: Optional[str] = None,
        group_atom: AtomType = AtomType.STR,
    ):
        bad = [a for a in aggregates if a not in
               ("sum", "count", "count_star", "avg", "min", "max")]
        if bad:
            raise DataCellError(f"unknown window aggregates: {bad}")
        if not aggregates:
            raise DataCellError("window plan needs at least one aggregate")
        self.input_basket = input_basket.lower()
        self.value_column = value_column.lower()
        self.aggregates = list(aggregates)
        self.spec = spec
        self.output_basket = output_basket.lower()
        self.group_column = group_column.lower() if group_column else None
        self.group_atom = group_atom
        self.next_window = 0
        self.values_processed = 0  # tuples touched by aggregation work
        self.windows_emitted = 0

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        """Schema of the rows this plan emits (window id, group?, aggs)."""
        cols: List[Tuple[str, AtomType]] = [("window_id", AtomType.LNG)]
        if self.group_column:
            cols.append((self.group_column, self.group_atom))
        for name in self.aggregates:
            cols.append((name, _aggregate_atom(name)))
        return cols


#: pane-table planes.  Counts are float64 too (exact below 2**53), so the
#: table is one array that grows, trims and checkpoints as a unit.
STARS, COUNT, SUM, MIN, MAX, FIRST = range(6)
_IDENTITY = np.array([0.0, 0.0, 0.0, np.inf, -np.inf, np.inf])[:, None, None]
#: format version of :meth:`WindowAggregatePlan.export_state`
STATE_VERSION = 1


def _time_panes(times: np.ndarray, bw: float) -> np.ndarray:
    """Pane of each timestamp by the exact half-open rule
    ``p*bw <= t < (p+1)*bw`` — the re-eval reference's window mask.
    ``floor(t/bw)`` alone can round across an integer."""
    panes = np.floor(times / bw)
    panes -= times < panes * bw
    panes += times >= (panes + 1) * bw
    return panes.astype(np.int64)


class WindowAggregatePlan(_WindowAggregateBase):
    """Sliding/tumbling window aggregate over a pane table.

    The table has one row per pane and one column per group key; its
    planes hold, per cell, the tuple count (``count(*)``), the non-NULL
    count, sum, min, max and the first arrival seq.  Group keys are
    factorised per snapshot by the kernel's ``group.group`` and mapped to
    persistent columns.  A firing folds every window that closed in one
    vectorised pass: sums and counts as differences of prefix sums over
    the pane axis (restarted at the firing's first live pane, so nothing
    drifts across firings), min/max as a reduction over each window's
    panes, and groups emitted in order of first arrival — the re-eval
    reference's row order.  ``values_processed`` counts tuples reduced
    into the table: each tuple once, whatever the overlap.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bw = basic_window_width(self.spec)
        self._slide_panes = int(round(self.spec.slide / self.bw))
        self._size_panes = int(round(self.spec.size / self.bw))
        self._table = np.empty((6, 0, 1))
        self._origin = 0  # absolute pane of table row 0
        self._top = 0  # one past the highest pane holding data
        self._codes: Dict[Any, int] = {}  # group key -> table column
        self._keys = np.empty(0, dtype=numpy_dtype(self.group_atom))
        self._position = 0  # tuples ingested: stream position, arrival seq
        self._watermark = -math.inf

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count:
            self._ingest(snap)
        return self._emit()

    # -- ingest ---------------------------------------------------------
    def _ingest(self, snap: BasketSnapshot) -> None:
        value_bat = snap.column(self.value_column)
        nils = value_bat.nil_positions()
        values = value_bat.tail.astype(np.float64)
        seq = np.arange(self._position, self._position + len(values))
        self._position += len(values)
        self.values_processed += len(values)
        if self.spec.mode is WindowMode.COUNT:
            panes = seq // int(self.bw)
        else:
            times = snap.column(TIME_COLUMN).tail
            self._watermark = max(self._watermark, float(times.max()))
            panes = _time_panes(times, self.bw)
        codes = self._group_codes(snap) if self.group_column else 0
        live = panes >= self.next_window * self._slide_panes
        if not live.all():  # late: no open or future window holds them
            panes, values, nils, seq = (
                panes[live], values[live], nils[live], seq[live]
            )
            if self.group_column:
                codes = codes[live]
            if not len(panes):
                return
        top = int(panes.max()) + 1
        self._reserve(top, max(len(self._keys), 1))
        cells = (panes - self._origin) * self._table.shape[2] + codes
        if (cells[1:] < cells[:-1]).any():
            order = np.argsort(cells, kind="stable")
            cells, values, nils, seq = (
                cells[order], values[order], nils[order], seq[order]
            )
        edges = np.flatnonzero(cells[1:] != cells[:-1]) + 1
        starts = np.concatenate(([0], edges))
        part = np.empty((6, len(starts)))
        part[STARS] = np.concatenate((edges, [len(cells)])) - starts
        part[COUNT] = part[STARS] - np.add.reduceat(
            nils, starts, dtype=np.int64
        )
        part[SUM] = np.add.reduceat(np.where(nils, 0.0, values), starts)
        part[MIN] = np.minimum.reduceat(
            np.where(nils, np.inf, values), starts
        )
        part[MAX] = np.maximum.reduceat(
            np.where(nils, -np.inf, values), starts
        )
        part[FIRST] = seq[starts]
        flat = self._table.reshape(6, -1)
        at = cells[starts]
        cur = flat[:, at]
        cur[:MIN] += part[:MIN]
        np.minimum(cur[MIN], part[MIN], out=cur[MIN])
        np.maximum(cur[MAX], part[MAX], out=cur[MAX])
        np.minimum(cur[FIRST], part[FIRST], out=cur[FIRST])
        flat[:, at] = cur
        self._top = max(self._top, top)

    def _group_codes(self, snap: BasketSnapshot) -> np.ndarray:
        """Persistent table column of each tuple's group key."""
        bat = snap.column(self.group_column)
        if bat.atom is not self.group_atom:
            raise DataCellError(
                f"window group column {self.group_column!r} is "
                f"{bat.atom.value}, the plan was built for "
                f"{self.group_atom.value}"
            )
        gids, extents, _ = group(bat)
        reps = bat.tail[extents]
        local = np.empty(len(reps), dtype=np.int64)
        fresh = []
        for i, key in enumerate(_key_list(bat.atom, reps)):
            code = self._codes.get(key)
            if code is None:
                code = self._codes[key] = len(self._codes)
                fresh.append(i)
            local[i] = code
        if fresh:
            self._keys = np.concatenate([self._keys, reps[fresh]])
        return local[gids.tail]

    def _reserve(self, top: int, groups: int) -> None:
        """Make the table reach pane ``top`` (exclusive) and hold
        ``groups`` columns; panes before the open window are dropped."""
        _, rows, cols = self._table.shape
        if top - self._origin <= rows and groups <= cols:
            return
        first = self.next_window * self._slide_panes
        keep = self._table[:, first - self._origin : self._top - self._origin]
        table = np.empty((
            6,
            max(2 * (max(top, self._top) - first), 8),
            cols if groups <= cols else max(groups, 2 * cols),
        ))
        table[:] = _IDENTITY
        table[:, : keep.shape[1], :cols] = keep
        self._table, self._origin = table, first

    # -- emission -------------------------------------------------------
    def _closed(self) -> int:
        """How many windows, counted from window 0, are complete."""
        if not self._position:
            return 0
        spec = self.spec
        reach = (
            self._position if spec.mode is WindowMode.COUNT
            else self._watermark
        )
        k = max(0, math.floor((reach - spec.size) / spec.slide) + 1)
        while k > 0 and spec.window_end(k - 1) > reach:
            k -= 1
        while spec.window_end(k) <= reach:
            k += 1
        return k

    def _emit(self) -> PlanOutput:
        k0, k1 = self.next_window, self._closed()
        if k1 <= k0:
            return PlanOutput()
        slide, size = self._slide_panes, self._size_panes
        first = k0 * slide
        span = (k1 - k0 - 1) * slide + size
        groups = max(len(self._keys), 1)
        self._reserve(first + span, groups)
        lo = first - self._origin
        panes = self._table[:, lo : lo + span, :groups]
        starts = np.arange(k1 - k0) * slide
        ends = starts + size
        prefix = np.zeros((MIN, span + 1, groups))
        np.cumsum(panes[:MIN], axis=1, out=prefix[:, 1:])
        stars, count, total = prefix[:, ends] - prefix[:, starts]
        # reduceat folds [cuts[i], cuts[i+1]): the even slots are the
        # windows (the last one runs to the end of the span), the odd
        # slots span the gaps between windows and are discarded
        cuts = np.empty(2 * len(starts) - 1, dtype=np.int64)
        cuts[0::2], cuts[1::2] = starts, ends[:-1]

        def fold(plane: int, reduce: np.ufunc) -> np.ndarray:
            return reduce.reduceat(panes[plane], cuts, axis=0)[::2]

        if self.group_column:
            win, col = np.nonzero(stars)
            order = np.lexsort((fold(FIRST, np.minimum)[win, col], win))
            win, col = win[order], col[order]
        else:
            win = np.arange(k1 - k0)
            col = np.zeros_like(win)
        n = count[win, col]
        empty = n == 0
        columns = [k0 + win]
        if self.group_column:
            columns.append(self._keys[col])
        for name in self.aggregates:
            if name == "count_star":
                columns.append(stars[win, col])
                continue
            if name == "count":
                columns.append(n)
                continue
            if name == "min":
                value = fold(MIN, np.minimum)[win, col]
            elif name == "max":
                value = fold(MAX, np.maximum)[win, col]
            elif name == "sum":
                value = total[win, col]
            else:
                value = total[win, col] / np.where(empty, 1.0, n)
            columns.append(np.where(empty, np.nan, value))
        self.next_window = k1
        self.windows_emitted += k1 - k0
        schema = self.output_schema()
        bats = []
        for (_, atom), values in zip(schema, columns):
            bat = BAT(atom, capacity=len(values))
            bat.append_array(values)
            bats.append(bat)
        result = ResultSet([name for name, _ in schema], bats)
        return PlanOutput(results={self.output_basket: result})

    def tuples_needed(self) -> Optional[int]:
        """How many more tuples complete the next window (COUNT mode).

        Paper §3.1's trigger — fire "when there are enough tuples to fill
        one or more windows" — would gate the factory on this, through
        the input binding's ``min_tuples``.  Nothing in the engine wires
        it.  ``None`` in TIME mode, where timestamps decide.
        """
        if self.spec.mode is not WindowMode.COUNT:
            return None
        end = int(self.spec.window_end(self.next_window))
        return max(0, end - self._position)

    # -- durability -----------------------------------------------------
    # The pane table is exactly the factory saved-state the paper's
    # co-routine model carries between activations.  It is checkpointed
    # as CRC-framed serde columns, never pickled: loading a checkpoint
    # decodes arrays and cannot execute code.
    def export_state(self) -> bytes:
        first = self.next_window * self._slide_panes
        live = self._table[:, first - self._origin : self._top - self._origin]
        header = [
            STATE_VERSION, self.next_window, self.windows_emitted,
            self.values_processed, self._position, live.shape[1],
            live.shape[2],
        ]
        return b"".join(pack_frame(column) for column in (
            encode_column(AtomType.LNG, np.array(header)),
            encode_column(AtomType.DBL, np.array([self._watermark])),
            encode_column(AtomType.DBL, live.ravel()),
            encode_column(self.group_atom, self._keys),
        ))

    def import_state(self, blob: Optional[bytes]) -> None:
        def corrupt(reason: str) -> DataCellError:
            return DataCellError(
                f"window plan {self.describe()!r}: saved state {reason}"
            )

        if blob is None:
            raise corrupt("expected in the checkpoint but not found")
        frames, torn = frames_with_tail(blob)
        if torn or len(frames) != 4:
            raise corrupt("is corrupt (CRC or framing mismatch)")
        header = decode_column(AtomType.LNG, frames[0]).tolist()
        if len(header) != 7 or header[0] != STATE_VERSION:
            raise corrupt(f"has an unsupported format version {header[:1]}")
        _, k, emitted, processed, position, rows, cols = header
        watermark = decode_column(AtomType.DBL, frames[1])
        table = decode_column(AtomType.DBL, frames[2])
        keys = decode_column(self.group_atom, frames[3])
        if (len(watermark) != 1 or cols < max(len(keys), 1)
                or table.size != 6 * rows * cols):
            raise corrupt("does not match its header")
        self.next_window, self.windows_emitted = k, emitted
        self.values_processed, self._position = processed, position
        self._watermark = float(watermark[0])
        self._table = table.reshape(6, rows, cols)
        self._origin = k * self._slide_panes
        self._top = self._origin + rows
        self._keys = keys
        self._codes = {
            key: i for i, key in enumerate(_key_list(self.group_atom, keys))
        }

    def nbytes(self) -> int:
        """Bytes of the pane table and the group keys (what
        :meth:`export_state` captures, plus growth slack)."""
        from ..obs.resources import estimate_nbytes

        return int(self._table.nbytes) + estimate_nbytes(self._keys)

    def describe(self) -> str:
        return f"window({self.aggregates}, {self.spec}, bw={self.bw})"


class SlidingWindowJoinPlan(ContinuousPlan):
    """A symmetric incremental sliding-window equi-join of two streams.

    Each stream keeps the tuples of the last ``window`` seconds.  On
    activation, new left tuples probe the right buffer and vice versa —
    already-matched pairs are never recomputed (pipelined symmetric hash
    join).  Expired tuples are dropped by watermark.

    Output rows: ``(key, left_time, right_time)`` appended to the output
    basket, which must have schema ``(key <type>, left_time timestamp,
    right_time timestamp)``.
    """

    def __init__(
        self,
        left_basket: str,
        right_basket: str,
        left_key: str,
        right_key: str,
        window_seconds: float,
        output_basket: str,
    ):
        if window_seconds <= 0:
            raise DataCellError("join window must be positive")
        self.left_basket = left_basket.lower()
        self.right_basket = right_basket.lower()
        self.left_key = left_key.lower()
        self.right_key = right_key.lower()
        self.window = float(window_seconds)
        self.output_basket = output_basket.lower()
        self._left: Dict[Any, List[float]] = {}
        self._right: Dict[Any, List[float]] = {}
        self._watermark = -math.inf
        self.pairs_emitted = 0
        self.probes = 0

    # join buffers are factory saved-state too (still pickled, unlike the
    # pane table of WindowAggregatePlan)
    def export_state(self) -> bytes:
        import pickle

        return pickle.dumps(self.__dict__, protocol=4)

    def import_state(self, blob: Optional[bytes]) -> None:
        if blob is None:
            raise DataCellError(
                "sliding-window join expected saved state in the "
                "checkpoint but found none"
            )
        import pickle

        self.__dict__.update(pickle.loads(blob))

    def nbytes(self) -> int:
        from ..obs.resources import estimate_nbytes

        return estimate_nbytes(self.__dict__)

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        new_left = self._pull(snapshots.get(self.left_basket), self.left_key)
        new_right = self._pull(
            snapshots.get(self.right_basket), self.right_key
        )
        rows: List[Tuple[Any, float, float]] = []
        # New left tuples probe the right buffer *before* new rights are
        # inserted, and new rights probe the left buffer *after* new lefts
        # were: new-left x old-right pairs come from the first loop,
        # (old+new)-left x new-right pairs from the second — each pair is
        # found exactly once.
        for key, stamp in new_left:
            self.probes += 1
            for rstamp in self._right.get(key, ()):
                if abs(stamp - rstamp) <= self.window:
                    rows.append((key, stamp, rstamp))
            self._left.setdefault(key, []).append(stamp)
        for key, stamp in new_right:
            self.probes += 1
            for lstamp in self._left.get(key, ()):
                if abs(stamp - lstamp) <= self.window:
                    rows.append((key, lstamp, stamp))
            self._right.setdefault(key, []).append(stamp)
        self._expire()
        self.pairs_emitted += len(rows)
        if not rows:
            return PlanOutput()
        keys, lts, rts = zip(*rows)
        key_atom = self._key_atom
        result = ResultSet(
            ["key", "left_time", "right_time"],
            [
                bat_from_values(key_atom, list(keys)),
                bat_from_values(AtomType.TIMESTAMP, list(lts)),
                bat_from_values(AtomType.TIMESTAMP, list(rts)),
            ],
        )
        return PlanOutput(results={self.output_basket: result})

    _key_atom = AtomType.LNG

    def _pull(self, snap: Optional[BasketSnapshot], key_col: str):
        if snap is None or snap.count == 0:
            return []
        keys = snap.column(key_col).python_list()
        times = snap.column(TIME_COLUMN).tail.astype(np.float64)
        if len(times):
            self._watermark = max(self._watermark, float(times.max()))
        if snap.column(key_col).atom is AtomType.STR:
            self._key_atom = AtomType.STR
        elif snap.column(key_col).atom is AtomType.DBL:
            self._key_atom = AtomType.DBL
        return [
            (k, float(t)) for k, t in zip(keys, times) if k is not None
        ]

    def _expire(self) -> None:
        horizon = self._watermark - self.window
        for buf in (self._left, self._right):
            dead = []
            for key, stamps in buf.items():
                stamps[:] = [s for s in stamps if s >= horizon]
                if not stamps:
                    dead.append(key)
            for key in dead:
                del buf[key]

    def describe(self) -> str:
        return (
            f"window-join({self.left_basket}.{self.left_key} = "
            f"{self.right_basket}.{self.right_key}, w={self.window}s)"
        )
