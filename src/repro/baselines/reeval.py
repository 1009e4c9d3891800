"""Window re-evaluation baselines: the differential references.

Two references bound the engine's :class:`~repro.core.windows
.WindowAggregatePlan` from the slow side:

* :class:`ReEvalWindowAggregatePlan` — §3.1's re-evaluation route as a
  continuous plan: buffer the raw tuples, rescan every window extent from
  scratch when it closes.  Same constructor and output rows as the engine
  plan, so the oracles and property tests compare the two row for row;
* :class:`NaiveReEvalWindow` — the worst case: re-evaluate the full
  window after *every* arriving tuple (no batching, no summaries).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.basket import BasketSnapshot, TIME_COLUMN
from ..core.factory import PlanOutput
from ..core.windows import WindowMode, _WindowAggregateBase
from ..errors import DataCellError
from ..kernel.aggregate import AggregateState
from ..kernel.bat import bat_from_values
from ..kernel.mal import ResultSet

__all__ = ["ReEvalWindowAggregatePlan", "NaiveReEvalWindow"]


class ReEvalWindowAggregatePlan(_WindowAggregateBase):
    """Full re-evaluation of every window extent.

    Keeps the raw tuples of all open windows buffered; each emission scans
    the complete window from scratch, which is exactly what a plain DBMS
    plan would do when re-run — no state is reused between slides.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._values: List[np.ndarray] = []
        self._nils: List[np.ndarray] = []
        self._times: List[np.ndarray] = []
        self._groups: List[List[Any]] = []
        self._offset = 0  # stream position of the buffer head

    # -- buffering ------------------------------------------------------
    def _buffered(self):
        values = (
            np.concatenate(self._values)
            if self._values
            else np.empty(0, dtype=np.float64)
        )
        nils = (
            np.concatenate(self._nils)
            if self._nils
            else np.empty(0, dtype=bool)
        )
        times = (
            np.concatenate(self._times)
            if self._times
            else np.empty(0, dtype=np.float64)
        )
        groups: Optional[List[Any]]
        if self.group_column:
            groups = [g for chunk in self._groups for g in chunk]
        else:
            groups = None
        return values, nils, times, groups

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count:
            value_bat = snap.column(self.value_column)
            nils = value_bat.nil_positions()
            self._values.append(
                np.where(nils, 0.0, value_bat.tail.astype(np.float64))
            )
            self._nils.append(nils)
            self._times.append(
                snap.column(TIME_COLUMN).tail.astype(np.float64)
            )
            if self.group_column:
                # python values keep the key's atom; NIL becomes None
                self._groups.append(
                    snap.column(self.group_column).python_list()
                )
        rows: List[Tuple[Any, ...]] = []
        while True:
            row_batch = self._try_emit()
            if row_batch is None:
                break
            rows.extend(row_batch)
        if not rows:
            return PlanOutput()
        schema = self.output_schema()
        columns = self._arrange(list(zip(*rows)))
        bats = [
            bat_from_values(atom, list(col))
            for (_, atom), col in zip(schema, columns)
        ]
        result = ResultSet([name for name, _ in schema], bats)
        return PlanOutput(results={self.output_basket: result})

    # -- emission -------------------------------------------------------
    def _try_emit(self) -> Optional[List[Tuple[Any, ...]]]:
        values, nils, times, groups = self._buffered()
        k = self.next_window
        if self.spec.mode is WindowMode.COUNT:
            start = int(self.spec.window_start(k)) - self._offset
            end = int(self.spec.window_end(k)) - self._offset
            if len(values) < end:
                return None
            in_window = slice(start, end)
        else:
            if len(times) == 0:
                return None
            watermark = float(times.max())
            if watermark < self.spec.window_end(k):
                return None
            mask = (times >= self.spec.window_start(k)) & (
                times < self.spec.window_end(k)
            )
            in_window = np.flatnonzero(mask)
        rows = self._evaluate_window(k, values, nils, groups, in_window)
        self.next_window += 1
        self._expire()
        self.windows_emitted += 1
        return rows

    def _evaluate_window(self, k, values, nils, groups, in_window):
        wvals = values[in_window]
        wnils = nils[in_window]
        self.values_processed += int(len(wvals))
        if groups is None:
            state = AggregateState()
            state.add_array(wvals[~wnils])
            return [self._row(k, None, state, int(len(wvals)))]
        if isinstance(in_window, slice):
            wgroups = groups[in_window]
        else:
            wgroups = [groups[i] for i in in_window]
        per_group: Dict[Any, AggregateState] = {}
        stars: Dict[Any, int] = {}
        for value, nil, grp in zip(wvals, wnils, wgroups):
            stars[grp] = stars.get(grp, 0) + 1
            state = per_group.setdefault(grp, AggregateState())
            if not nil:
                state.add_value(float(value))
        return [
            self._row(k, grp, per_group[grp], stars[grp])
            for grp in per_group
        ]

    def _row(self, k, group, state: AggregateState, star: int):
        row: List[Any] = [k]
        if self.group_column:
            row.append(group)
        for name in self.aggregates:
            if name == "count_star":
                row.append(star)
            else:
                value = state.result(name)
                if name == "count":
                    row.append(value)
                else:
                    row.append(None if value is None else float(value))
        return tuple(row)

    def _expire(self) -> None:
        """Drop buffer prefix no future window can reference."""
        values, nils, times, groups = self._buffered()
        if self.spec.mode is WindowMode.COUNT:
            keep_from = int(self.spec.window_start(self.next_window))
            drop = keep_from - self._offset
            if drop <= 0:
                return
            keep = slice(drop, None)
            self._offset = keep_from
        else:
            keep = times >= self.spec.window_start(self.next_window)
        self._values = [values[keep]]
        self._nils = [nils[keep]]
        self._times = [times[keep]]
        if groups is not None:
            self._groups = [list(np.array(groups, dtype=object)[keep])]

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
