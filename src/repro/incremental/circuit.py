"""DBSP stream operators over Z-set deltas.

A *circuit* maps streams of Z-sets to streams of Z-sets, driven one
*step* (factory firing) at a time.  Its lift stages are compiled MAL
programs (``repro.incremental.compile``); the stateful operators, which
keep the integrated state, are here:

``IncrementalGroupAggregate``
    the incrementalized GROUP-BY aggregate: per-group
    :class:`RetractableAggState` is updated by the delta only, and the
    output delta retracts the group's previous result row and inserts the
    new one.  Cost per step is ``O(groups touched by the delta)``.

``IncrementalJoin``
    the bilinear equi-join incrementalized as
    ``d(L ⋈ R) = dL ⋈ z(I(R)) + I(L) ⋈ dR`` where ``I(L)`` already
    contains ``dL`` — the three classic delta-join terms folded into two
    probes against keyed integrated state.

MIN/MAX need real retraction support (removing the current extremum must
reveal the runner-up), which plain fold-only summaries cannot do;
:class:`RetractableAggState` keeps an exact value→weight counter plus
lazy-deletion heaps so retraction stays amortized O(log n).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, List, Optional

from ..errors import AggregateOverflowError, DataCellError
from ..kernel.aggregate import AGGREGATE_NAMES, SUM_LIMIT
from .zset import Row, ZSet

__all__ = [
    "IncrementalGroupAggregate",
    "IncrementalJoin",
    "RetractableAggState",
]


class RetractableAggState:
    """A weighted aggregate summary supporting retraction.

    ``star`` counts tuples (COUNT(*)), ``count``/``total`` cover non-NULL
    values.  Values fold as they come, so ``total`` over integral values
    is an exact python int and AVG divides it once.  When
    ``track_minmax`` is set, an exact value→weight counter plus two
    lazy-deletion heaps answer MIN/MAX after arbitrary retraction
    sequences; without it MIN/MAX queries raise, keeping COUNT/SUM-only
    pipelines free of the counter overhead.
    """

    __slots__ = ("star", "count", "total", "track_minmax", "value_weights",
                 "min_heap", "max_heap")

    def __init__(self, track_minmax: bool = False) -> None:
        self.star = 0
        self.count = 0
        self.total: Any = 0
        self.track_minmax = track_minmax
        self.value_weights: Dict[Any, int] = {}
        self.min_heap: List[Any] = []
        self.max_heap: List[Any] = []  # negated values

    # ------------------------------------------------------------------
    def add(self, value: Any, weight: int) -> None:
        """Fold ``weight`` copies of ``value`` (NULL allowed) in."""
        self.star += weight
        if value is None:
            return
        self.count += weight
        self.total += value * weight
        if not self.track_minmax:
            return
        prev = self.value_weights.get(value, 0)
        new = prev + weight
        if new < 0:
            raise DataCellError(
                f"retraction below zero for value {value} "
                f"(weight {prev} + {weight})"
            )
        if new == 0:
            self.value_weights.pop(value, None)
        else:
            self.value_weights[value] = new
            if prev == 0:
                heapq.heappush(self.min_heap, value)
                heapq.heappush(self.max_heap, -value)

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return self.star == 0 and self.count == 0 and not self.value_weights

    def _minimum(self) -> Any:
        while self.min_heap:
            value = self.min_heap[0]
            if self.value_weights.get(value, 0) > 0:
                return value
            heapq.heappop(self.min_heap)  # lazily drop retracted entry
        return None

    def _maximum(self) -> Any:
        while self.max_heap:
            value = -self.max_heap[0]
            if self.value_weights.get(value, 0) > 0:
                return value
            heapq.heappop(self.max_heap)
        return None

    def result(self, name: str) -> Any:
        """Answer aggregate ``name`` (SQL NULL rules)."""
        if name == "count_star":
            return self.star
        if name == "count":
            return self.count
        if self.count == 0:
            return None
        if name == "sum":
            # the kernel's rule: a sum past BIGINT is refused
            if isinstance(self.total, int) and abs(self.total) > SUM_LIMIT:
                raise AggregateOverflowError()
            return self.total
        if name == "avg":
            return self.total / self.count
        if name in ("min", "max"):
            if not self.track_minmax:
                raise DataCellError(
                    "aggregate state built without min/max tracking"
                )
            return self._minimum() if name == "min" else self._maximum()
        raise DataCellError(f"unknown aggregate {name!r}")

    # ------------------------------------------------------------------
    # durability: heaps may hold stale (fully retracted) values; compact
    # on export so the blob is a pure function of the live multiset and
    # recovered state digests stay byte-identical across crash points.
    def export_state(self) -> Dict[str, Any]:
        return {
            "star": self.star,
            "count": self.count,
            "total": self.total,
            "track_minmax": self.track_minmax,
            "value_weights": dict(sorted(self.value_weights.items())),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RetractableAggState":
        out = cls(track_minmax=state["track_minmax"])
        out.star = state["star"]
        out.count = state["count"]
        # states saved before values folded exactly hold float64s; an
        # integral one continues as the int it stands for
        out.total = _exact(state["total"])
        out.value_weights = {
            _exact(value): weight
            for value, weight in state["value_weights"].items()
        }
        out.min_heap = list(out.value_weights)
        heapq.heapify(out.min_heap)
        out.max_heap = [-v for v in out.value_weights]
        heapq.heapify(out.max_heap)
        return out

    def nbytes(self) -> int:
        per_entry = 96
        return 200 + per_entry * len(self.value_weights) + 8 * (
            len(self.min_heap) + len(self.max_heap)
        )


def _exact(value: Any) -> Any:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class IncrementalGroupAggregate:
    """Incremental GROUP-BY aggregate over a keyed delta stream.

    Input rows are ``(*group_keys, value)`` (value may be ``None`` for
    NULL); without GROUP BY the key is empty, so every row folds into
    the one group ``()``, whose row exists over no rows too (the counts
    0, the rest NULL), as in SQL.  The output delta retracts the group's
    previous result row (weight −1) and inserts the new one (+1); any
    other group whose state empties only retracts.  Groups are visited in the
    order the delta first touches them, retraction before insertion, so
    output row order is deterministic.

    Output rows: ``(*group_key, *aggregate_values)``.
    """

    def __init__(self, aggregates: List[str]) -> None:
        bad = [a for a in aggregates if a not in AGGREGATE_NAMES]
        if bad:
            raise DataCellError(f"unknown aggregates: {bad}")
        if not aggregates:
            raise DataCellError("need at least one aggregate")
        self.aggregates = list(aggregates)
        self.track_minmax = bool({"min", "max"} & set(aggregates))
        self.groups: Dict[Hashable, RetractableAggState] = {}

    def current_row(self, key: Hashable) -> Optional[Row]:
        """Group ``key``'s result row, None for an empty group."""
        state = self.groups.get(key)
        if state is None or state.star == 0:
            if key:
                return None
            state = RetractableAggState()
        return (*key, *(state.result(name) for name in self.aggregates))

    def step(self, delta: ZSet) -> ZSet:
        # snapshot the pre-delta result row of every touched group, in
        # first-touch order, then fold the whole delta before emitting
        touched: List[Hashable] = []
        before: Dict[Hashable, Optional[Row]] = {}
        for row, weight in delta.items():
            key, value = row[:-1], row[-1]
            if key not in before:
                before[key] = self.current_row(key)
                touched.append(key)
            state = self.groups.get(key)
            if state is None:
                state = RetractableAggState(track_minmax=self.track_minmax)
                self.groups[key] = state
            state.add(value, weight)
        out = ZSet()
        for key in touched:
            after = self.current_row(key)
            if before[key] == after:
                continue
            if before[key] is not None:
                out.add(before[key], -1)
            if after is not None:
                out.add(after, +1)
            state = self.groups.get(key)
            if state is not None and state.is_empty():
                del self.groups[key]
        return out

    # -- durability -----------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "aggregates": self.aggregates,
            "groups": {
                key: state.export_state()
                for key, state in sorted(
                    self.groups.items(), key=lambda kv: repr(kv[0])
                )
            },
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        self.aggregates = list(state["aggregates"])
        self.track_minmax = bool({"min", "max"} & set(self.aggregates))
        self.groups = {
            key: RetractableAggState.from_state(blob)
            for key, blob in state["groups"].items()
        }

    def nbytes(self) -> int:
        return 200 + sum(
            64 + state.nbytes() for state in self.groups.values()
        )


class IncrementalJoin:
    """Incremental equi-join: delta-probe against integrated state.

    Input rows carry their join key at ``key_index``; output rows are
    ``(*left_row, *right_row_without_key)`` — the key appears once, from
    the left side, matching the re-eval join's projection.

    Per step: ``d(L ⋈ R) = dL ⋈ I_old(R) + I_new(L) ⋈ dR`` where
    ``I_new(L)`` already includes ``dL``, so the ``dL ⋈ dR`` cross term
    is counted exactly once.  Output weights multiply (bilinearity).
    """

    def __init__(self, left_key: int, right_key: int) -> None:
        self.left_key = left_key
        self.right_key = right_key
        # key -> ZSet of rows with that key (integrated state per side)
        self.left_state: Dict[Hashable, ZSet] = {}
        self.right_state: Dict[Hashable, ZSet] = {}

    def _fold(
        self, state: Dict[Hashable, ZSet], key_index: int, delta: ZSet
    ) -> None:
        for row, weight in delta.items():
            key = row[key_index]
            bucket = state.get(key)
            if bucket is None:
                bucket = state[key] = ZSet()
            bucket.add(row, weight)
            if not bucket:
                del state[key]

    def _pair(self, left_row: Row, right_row: Row) -> Row:
        right = (
            right_row[: self.right_key] + right_row[self.right_key + 1 :]
        )
        return (*left_row, *right)

    def step_both(self, dleft: ZSet, dright: ZSet) -> ZSet:
        """Advance one step with deltas for both inputs."""
        out = ZSet()
        # dL ⋈ I_old(R): probe the right state before folding dR in
        for lrow, lweight in dleft.items():
            key = lrow[self.left_key]
            if key is None:
                continue
            bucket = self.right_state.get(key)
            if bucket:
                for rrow, rweight in bucket.items():
                    out.add(self._pair(lrow, rrow), lweight * rweight)
        self._fold(self.left_state, self.left_key, dleft)
        # I_new(L) ⋈ dR: left state now includes dL → dL⋈dR counted here
        for rrow, rweight in dright.items():
            key = rrow[self.right_key]
            if key is None:
                continue
            bucket = self.left_state.get(key)
            if bucket:
                for lrow, lweight in bucket.items():
                    out.add(self._pair(lrow, rrow), lweight * rweight)
        self._fold(self.right_state, self.right_key, dright)
        return out

    # -- durability -----------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        def side(state: Dict[Hashable, ZSet]) -> Dict[Hashable, List]:
            return {
                key: sorted(bucket.items(), key=repr)
                for key, bucket in sorted(state.items(), key=lambda kv: repr(kv[0]))
            }

        return {
            "left_key": self.left_key,
            "right_key": self.right_key,
            "left_state": side(self.left_state),
            "right_state": side(self.right_state),
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        self.left_key = state["left_key"]
        self.right_key = state["right_key"]

        def side(blob: Dict[Hashable, List]) -> Dict[Hashable, ZSet]:
            out: Dict[Hashable, ZSet] = {}
            for key, entries in blob.items():
                zs = ZSet()
                for row, weight in entries:
                    zs.add(tuple(row), weight)
                out[key] = zs
            return out

        self.left_state = side(state["left_state"])
        self.right_state = side(state["right_state"])

    def nbytes(self) -> int:
        return 200 + sum(
            64 + bucket.nbytes()
            for state in (self.left_state, self.right_state)
            for bucket in state.values()
        )
