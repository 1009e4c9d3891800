"""Window re-evaluation baselines: the differential references.

Two references bound the engine's :class:`~repro.core.windows
.WindowAggregatePlan` from the slow side:

* :class:`ReEvalWindowAggregatePlan` — §3.1's re-evaluation route as a
  continuous plan: buffer the raw tuples, answer every window extent
  from scratch when it closes, with the kernel operators of a one-time
  GROUP BY.  Same constructor and output rows as the engine plan, so
  the oracles and property tests compare the two row for row;
* :class:`NaiveReEvalWindow` — the worst case: re-evaluate the full
  window after *every* arriving tuple (no batching, no summaries).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.basket import BasketSnapshot, TIME_COLUMN
from ..core.factory import ContinuousPlan, PlanOutput
from ..core.windows import WindowMode, WindowSpec
from ..errors import DataCellError
from ..kernel.aggregate import aggregate_atom, grouped_aggregate
from ..kernel.bat import BAT, bat_from_values
from ..kernel.group import group
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType

__all__ = ["ReEvalWindowAggregatePlan", "NaiveReEvalWindow"]


class ReEvalWindowAggregatePlan(ContinuousPlan):
    """Full re-evaluation of every window extent.

    Keeps the raw tuples of all open windows buffered as BATs.  Each
    window that closes is answered from its rows alone by the operators
    behind a one-time GROUP BY — the kernel's ``group.group`` over the
    window's keys (groups in order of first arrival) and
    ``grouped_aggregate`` per aggregate — so no state is reused between
    slides, and result atoms and NULLs are the kernel's.  The
    constructor is the engine plan's.
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
        self.input_basket = input_basket.lower()
        self.value_column = value_column.lower()
        self.aggregates = list(aggregates)
        self.spec = spec
        self.output_basket = output_basket.lower()
        self.group_column = group_column.lower() if group_column else None
        self.group_atom = group_atom
        self.value_atom = value_atom
        self.next_window = 0
        self.values_processed = 0  # tuples the window scans read
        self.windows_emitted = 0
        self._buffer: Dict[str, BAT] = {
            TIME_COLUMN: BAT(AtomType.TIMESTAMP),
            self.value_column: BAT(value_atom),
        }
        if self.group_column:
            self._buffer[self.group_column] = BAT(group_atom)
        self._offset = 0  # stream position of the buffer head

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        """``window_id``, the group key and the aggregates, in order."""
        cols: List[Tuple[str, AtomType]] = [("window_id", AtomType.LNG)]
        if self.group_column:
            cols.append((self.group_column, self.group_atom))
        return cols + [
            (name, aggregate_atom(name, self.value_atom))
            for name in self.aggregates
        ]

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count:
            for name, bat in self._buffer.items():
                bat.append_bat(snap.column(name))
        rows: List[Tuple[Any, ...]] = []
        positions = self._closed_window()
        while positions is not None:
            rows.extend(self._evaluate(self.next_window, positions))
            self.next_window += 1
            self.windows_emitted += 1
            self._expire()
            positions = self._closed_window()
        if not rows:
            return PlanOutput()
        schema = self.output_schema()
        bats = [
            bat_from_values(atom, list(col))
            for (_, atom), col in zip(schema, zip(*rows))
        ]
        result = ResultSet([name for name, _ in schema], bats)
        return PlanOutput(results={self.output_basket: result})

    def _closed_window(self) -> Optional[np.ndarray]:
        """Buffer positions of the next window's rows once it has closed,
        else None."""
        k = self.next_window
        start, end = self.spec.window_start(k), self.spec.window_end(k)
        times = self._buffer[TIME_COLUMN].tail
        if self.spec.mode is WindowMode.COUNT:
            if self._offset + len(times) < end:
                return None
            return np.arange(int(start), int(end)) - self._offset
        if not len(times) or times.max() < end:
            return None
        return np.flatnonzero((times >= start) & (times < end))

    def _evaluate(self, k: int, positions: np.ndarray):
        """Rows of window ``k``, whose tuples are at buffer ``positions``."""
        self.values_processed += len(positions)
        if self.group_column:
            keys = self._buffer[self.group_column]
            gids, extents, ngroups = group(keys, positions)
            columns = [keys.take_positions(positions[extents]).python_list()]
        else:
            zeros = np.zeros(len(positions), dtype=np.int64)
            gids, ngroups = BAT.adopt(AtomType.OID, zeros), 1
            columns = []
        values = self._buffer[self.value_column]
        columns += [
            grouped_aggregate(name, values, gids, ngroups, positions)
            .python_list()
            for name in self.aggregates
        ]
        return [(k, *row) for row in zip(*columns)]

    def _expire(self) -> None:
        """Drop the buffer prefix no future window can reference."""
        start = self.spec.window_start(self.next_window)
        times = self._buffer[TIME_COLUMN].tail
        if self.spec.mode is WindowMode.COUNT:
            keep = np.arange(int(start) - self._offset, len(times))
            self._offset = int(start)
        else:
            keep = np.flatnonzero(times >= start)
        self._buffer = {
            name: bat.take_positions(keep)
            for name, bat in self._buffer.items()
        }

    def describe(self) -> str:
        return f"reeval-window({self.aggregates}, {self.spec})"


class NaiveReEvalWindow:
    """Count-based sliding window, fully recomputed on every insert."""

    def __init__(self, size: int, slide: int, aggregate: str = "sum"):
        if size <= 0 or slide <= 0 or slide > size:
            raise DataCellError("bad window geometry")
        if aggregate not in ("sum", "count", "avg", "min", "max"):
            raise DataCellError(f"unknown aggregate {aggregate!r}")
        self.size = size
        self.slide = slide
        self.aggregate = aggregate
        self._buffer: Deque[float] = deque()
        self._since_emit = 0
        self.results: List[float] = []
        self.values_processed = 0

    def insert(self, value: float) -> Optional[float]:
        """Feed one tuple; returns the emitted aggregate, if any."""
        self._buffer.append(float(value))
        if len(self._buffer) > self.size:
            self._buffer.popleft()
        self._since_emit += 1
        if len(self._buffer) == self.size and self._since_emit >= self.slide:
            self._since_emit = 0
            result = self._evaluate()
            self.results.append(result)
            return result
        return None

    def _evaluate(self) -> float:
        # full rescan — this is the point of the baseline
        self.values_processed += len(self._buffer)
        if self.aggregate == "count":
            return float(len(self._buffer))
        if self.aggregate == "sum":
            return sum(self._buffer)
        if self.aggregate == "avg":
            return sum(self._buffer) / len(self._buffer)
        if self.aggregate == "min":
            return min(self._buffer)
        return max(self._buffer)
