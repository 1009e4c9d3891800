"""Windowed query processing (paper §3.1).

Window queries delimit the unbounded stream so blocking operators stay
feasible.  The DataCell does **not** add windowed operators to the kernel;
windows are realized at the query-plan/scheduling level, on top of plain
relational primitives — exactly the paper's design goal.

One plan evaluates every window aggregate, :class:`WindowAggregatePlan`.
Its unit is the paper's basic window (Zhu & Shasha [25]), here called a
*pane*: a window of size ``w`` sliding by ``s`` is cut into panes of
``bw = gcd(w, s)`` tuples (COUNT) or seconds (TIME).  The plan keeps a
table of the kernel's partials (``repro.kernel.aggregate``) with one
cell per (pane, group), the group's column found by the kernel's key map
(``repro.kernel.group.KeyMap``), as a view finds its cells: each tuple
of a snapshot is folded once into its cell (``fold``), a window is the
merge of the ``w/bw`` panes it covers (``merge``), and each aggregate
column is finalized as a one-time GROUP BY finalizes it (``finalize``).
So a tuple is aggregated once however much the windows overlap, a firing
costs its batch plus the windows it closes, and a window answers with a
GROUP BY's atoms, NULLs and exact sums.  In DBSP terms (PAPERS.md) the
window is an integrated collection of partials: each entering pane is
added, each leaving pane retracted.  Full re-evaluation survives only as
the differential reference,
:class:`repro.baselines.reeval.ReEvalWindowAggregatePlan`.

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
from ..errors import AggregateOverflowError, DataCellError
from ..kernel.aggregate import (
    IDENTITIES,
    MIN,
    NEEDS,
    PLANES,
    STAR,
    aggregate_atom,
    finalize,
    fold,
    merge,
)
from ..kernel.bat import BAT
from ..kernel.group import KeyMap
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType, numpy_dtype
from .basket import BasketSnapshot, TIME_COLUMN
from .factory import ContinuousPlan, PlanOutput

__all__ = [
    "WindowMode",
    "WindowSpec",
    "WindowAggregatePlan",
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


#: the pane table's last plane, after the kernel's partials: each
#: cell's first arrival seq, folded and merged by minimum
FIRST = PLANES
#: format version of :meth:`WindowAggregatePlan.export_state`.  Version
#: 1 is version 2 with a float64 table whatever the value atom, so only
#: a plan whose table is float64 restores it
STATE_VERSION = 2


def _time_panes(times: np.ndarray, bw: float) -> np.ndarray:
    """Pane of each timestamp by the exact half-open rule
    ``p*bw <= t < (p+1)*bw`` — the re-eval reference's window mask.
    ``floor(t/bw)`` alone can round across an integer."""
    panes = np.floor(times / bw)
    panes -= times < panes * bw
    panes += times >= (panes + 1) * bw
    return panes.astype(np.int64)


class WindowAggregatePlan(ContinuousPlan):
    """Sliding/tumbling window aggregate over a pane table.

    The table has one row per pane and one column per group key; its
    planes are the kernel's partials of each cell (tuple count, non-NULL
    count, sum, min, max) and its first arrival seq.  It is one array
    that grows, trims and checkpoints as a unit, in the kernel's partial
    dtype: int64 over an integral value atom, float64 otherwise.  Its
    columns are the key map's cells, one in an ungrouped window.  Each
    tuple folds straight into its (pane, group) cell, into the planes
    the aggregates need.  A firing merges every window that closed in
    one kernel ``merge`` over their panes, then finalizes each aggregate
    column.  Groups are emitted in order of first arrival — the re-eval
    reference's row order.  ``values_processed`` counts tuples reduced
    into the table: each tuple once, whatever the overlap.

    ``group_atom`` and ``value_atom`` are the atoms of the group and
    value columns.  Keys keep theirs from basket to output row; results
    take the kernel's :func:`~repro.kernel.aggregate.aggregate_atom` of
    the value atom and its NULL storage, as a one-time GROUP BY does,
    and the kernel refuses an unknown aggregate.
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
        value_atom: AtomType = AtomType.DBL,
    ):
        if not aggregates:
            raise DataCellError("window plan needs at least one aggregate")
        self.input_basket = input_basket.lower()
        self.value_column = value_column.lower()
        self.aggregates = list(aggregates)
        self.spec = spec
        self.output_basket = output_basket.lower()
        self.group_column = group_column.lower() if group_column else None
        self.group_atom = group_atom
        self.value_atom = value_atom
        self._atoms = [aggregate_atom(a, value_atom) for a in aggregates]
        self.next_window = 0
        self.values_processed = 0  # tuples touched by aggregation work
        self.windows_emitted = 0
        #: the columns after ``window_id`` as a SQL select list orders and
        #: names them: (name, position in the plan's own order); None
        #: keeps that order (window id, group?, aggregates)
        self.layout: Optional[List[Tuple[str, int]]] = None
        self.bw = basic_window_width(spec)
        self._slide_panes = int(round(spec.slide / self.bw))
        self._size_panes = int(round(spec.size / self.bw))
        #: the planes a firing folds and merges: STAR finds its cells
        self._planes = sorted({STAR}.union(*(NEEDS[a] for a in aggregates)))
        ident = IDENTITIES[value_atom]
        self._identity = np.append(ident, ident[MIN])
        self._table_atom = (
            AtomType.LNG if ident.dtype.kind == "i" else AtomType.DBL
        )
        self._table = np.empty((PLANES + 1, 0, 1), ident.dtype)
        self._origin = 0  # absolute pane of table row 0
        self._top = 0  # one past the highest pane holding data
        self._map = KeyMap([group_atom] if self.group_column else [])
        self._position = 0  # tuples ingested: stream position, arrival seq
        self._watermark = -math.inf

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        """Schema of the rows this plan emits."""
        cols: List[Tuple[str, AtomType]] = [("window_id", AtomType.LNG)]
        if self.group_column:
            cols.append((self.group_column, self.group_atom))
        cols += zip(self.aggregates, self._atoms)
        if self.layout is None:
            return cols
        return cols[:1] + [(name, cols[i][1]) for name, i in self.layout]

    def _arrange(self, columns: List[Any]) -> List[Any]:
        """Columns in the plan's own order → the output schema's."""
        if self.layout is None:
            return columns
        return columns[:1] + [columns[i] for _, i in self.layout]

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count:
            self._ingest(snap)
        return self._emit()

    # -- ingest ---------------------------------------------------------
    def _ingest(self, snap: BasketSnapshot) -> None:
        value_bat = self._column(snap, self.value_column, self.value_atom)
        nils = value_bat.nil_positions()
        values = value_bat.tail
        seq = np.arange(self._position, self._position + len(values))
        self._position += len(values)
        self.values_processed += len(values)
        if self.spec.mode is WindowMode.COUNT:
            panes = seq // int(self.bw)
        else:
            times = snap.column(TIME_COLUMN).tail
            self._watermark = max(self._watermark, float(times.max()))
            panes = _time_panes(times, self.bw)
        keys = [self._column(snap, self.group_column, atom)
                for atom in self._map.atoms]
        live = panes >= self.next_window * self._slide_panes
        if not live.all():  # late: no open or future window holds them
            panes, values, nils, seq = (
                panes[live], values[live], nils[live], seq[live]
            )
            keys = [BAT.adopt(bat.atom, bat.tail[live]) for bat in keys]
            if not len(panes):
                return
        groups = self._map.cells(keys, len(panes))
        top = int(panes.max()) + 1
        self._reserve(top)
        # each tuple folds straight into its (pane, group) cell
        cells = (panes - self._origin) * self._table.shape[2] + groups
        flat = self._table.reshape(PLANES + 1, -1)
        folded = fold(self.value_atom, cells, values, nils, self._planes,
                      into=flat[:FIRST])
        if folded.dtype != flat.dtype:  # a pane's sum left int64
            raise AggregateOverflowError()
        np.minimum.at(flat[FIRST], cells, seq.astype(flat.dtype, copy=False))
        self._top = max(self._top, top)

    def _column(self, snap: BasketSnapshot, name: str, atom: AtomType) -> BAT:
        """Column ``name`` of ``snap``, which must hold the atom the plan
        was built for."""
        bat = snap.column(name)
        if bat.atom is not atom:
            raise DataCellError(
                f"window column {name!r} is {bat.atom.value}, the plan "
                f"was built for {atom.value}"
            )
        return bat

    def _reserve(self, top: int) -> None:
        """Make the table reach pane ``top`` (exclusive) and hold a column
        per group key; panes before the open window are dropped."""
        _, rows, cols = self._table.shape
        if top - self._origin <= rows and self._map.size <= cols:
            return
        first = self.next_window * self._slide_panes
        keep = self._table[:, first - self._origin : self._top - self._origin]
        panes = max(2 * (max(top, self._top) - first), 8)
        table = np.empty((PLANES + 1, panes, cols), self._table.dtype)
        table[:] = self._identity[:, None, None]
        table[:, : keep.shape[1]] = keep
        self._table, self._origin = self._map.fit(table, self._identity), first

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
        self._reserve(first + span)
        lo = first - self._origin
        starts = np.arange(k1 - k0) * slide
        # one kernel merge closes every window, its FIRST plane too
        windows = merge(
            self.value_atom, self._table[:, lo : lo + span, : self._map.size],
            starts, starts + size, self._planes,
        )
        # an ungrouped window answers over no tuples too, as SQL does
        stars = windows[STAR] if self.group_column else windows[STAR] + 1
        win, col = np.nonzero(stars)
        order = np.lexsort((windows[FIRST, win, col], win))
        win, col = win[order], col[order]
        cells = windows[:, win, col]
        columns = [BAT.adopt(AtomType.LNG, k0 + win)] + [
            BAT.adopt(atom, keys[col])
            for atom, keys in zip(self._map.atoms, self._map.keys)
        ] + [
            finalize(name, self.value_atom, cells) for name in self.aggregates
        ]
        self.next_window = k1
        self.windows_emitted += k1 - k0
        names = [name for name, _ in self.output_schema()]
        result = ResultSet(names, self._arrange(columns))
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
    # as CRC-framed serde columns: loading a checkpoint decodes arrays and
    # cannot execute code.
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
            encode_column(self._table_atom, live.ravel()),
            encode_column(self.group_atom, np.concatenate(
                [np.empty(0, numpy_dtype(self.group_atom)), *self._map.keys])),
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
        readable = (STATE_VERSION,) + (
            (1,) if self._table_atom is AtomType.DBL else ()
        )
        if len(header) != 7 or header[0] not in readable:
            raise corrupt(
                f"has an unsupported format version {header[:1]} for a "
                f"{self._table_atom.value} pane table"
            )
        _, k, emitted, processed, position, rows, cols = header
        watermark = decode_column(AtomType.DBL, frames[1])
        table = decode_column(self._table_atom, frames[2])
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
        self._map.restore([keys] if self.group_column else [])

    def nbytes(self) -> int:
        """Bytes of the pane table and the group keys (what
        :meth:`export_state` captures, plus growth slack)."""
        from ..obs.resources import estimate_nbytes

        return int(self._table.nbytes) + estimate_nbytes(self._map.keys)

    def describe(self) -> str:
        return f"window({self.aggregates}, {self.spec}, bw={self.bw})"

