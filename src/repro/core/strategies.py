"""Processing strategies: how factories and baskets interact (paper §2.5).

Three strategies from the paper, each materialized as a builder that wires
baskets, factories and auxiliary transitions into a runnable network:

``separate baskets``
    maximum independence — each query owns private input/output baskets, at
    the cost of replicating every incoming tuple into each private basket
    (:func:`build_separate_pipeline`, using :class:`ReplicatorTransition`).

``shared baskets``
    one basket per stream attribute; all interested factories read it as
    registered *shared readers* and a tuple is physically removed only
    after every reader saw it (:func:`build_shared_pipeline`).

``disjoint chaining``
    queries over disjoint ranges of the same attribute are ordered in a
    chain; each query removes its qualifying tuples and passes the
    leftovers on, so later queries inspect fewer tuples
    (:func:`build_chained_pipeline`, using :class:`ChainedSelectPlan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataCellError
from ..kernel.join import projection
from ..kernel.mal import ResultSet
from ..kernel.select import Range
from ..kernel.types import AtomType
from .basket import Basket, BasketSnapshot, TIME_COLUMN
from .clock import Clock
from .factory import (
    ActivationResult,
    ConsumeMode,
    ContinuousPlan,
    Factory,
    InputBinding,
    PlanOutput,
)

__all__ = [
    "RangeQuery",
    "SelectPlan",
    "ChainedSelectPlan",
    "ReplicatorTransition",
    "StrategyNetwork",
    "build_separate_pipeline",
    "build_shared_pipeline",
    "build_chained_pipeline",
]


@dataclass(frozen=True)
class RangeQuery:
    """A continuous range selection — the workhorse of the §2.5 strategies.

    SQL shape: ``select * from [select * from S] as x where x.column
    between low and high``.
    """

    name: str
    column: str
    low: Optional[float] = None
    high: Optional[float] = None


class SelectPlan(ContinuousPlan):
    """Project all user columns of the tuples matching a range predicate."""

    def __init__(self, query: RangeQuery, input_basket: str, output_basket: str):
        self.query = query
        self.input_basket = input_basket.lower()
        self.output_basket = output_basket.lower()
        self.tuples_scanned = 0
        # the range, resolved against the column on the first firing
        self._hit = Range(query.low, query.high)

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count == 0:
            return PlanOutput()
        self.tuples_scanned += snap.count
        column = snap.column(self.query.column)
        cands = self._hit(column)
        names = [n for n in snap.names if n != TIME_COLUMN]
        bats = [projection(cands, snap.column(n)) for n in names]
        return PlanOutput(
            results={self.output_basket: ResultSet(names, bats)}
        )

    def describe(self) -> str:
        q = self.query
        return f"select {q.column} in [{q.low}, {q.high}]"


class ChainedSelectPlan(ContinuousPlan):
    """A link of the disjoint-chaining strategy.

    Qualifying tuples go to the query's result basket; the rest are passed
    down the chain through the leftover basket ("all we need is an extra
    basket between q1 and q2 so that q2 runs only after q1").  The final
    link has no leftover basket and simply drops non-qualifying tuples.
    """

    def __init__(
        self,
        query: RangeQuery,
        input_basket: str,
        output_basket: str,
        leftover_basket: Optional[str] = None,
    ):
        self.query = query
        self.input_basket = input_basket.lower()
        self.output_basket = output_basket.lower()
        self.leftover_basket = (
            leftover_basket.lower() if leftover_basket else None
        )
        self.tuples_scanned = 0
        # the range and its complement, resolved on the first firing
        self._hit = Range(query.low, query.high)
        self._miss = Range(query.low, query.high, anti=True)

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots[self.input_basket]
        if snap.count == 0:
            return PlanOutput()
        self.tuples_scanned += snap.count
        column = snap.column(self.query.column)
        hit = self._hit(column)
        names = [n for n in snap.names if n != TIME_COLUMN]
        results = {
            self.output_basket: ResultSet(
                names, [projection(hit, snap.column(n)) for n in names]
            )
        }
        if self.leftover_basket is not None:
            miss = self._miss(column)
            # anti-select drops NULLs; keep them flowing down the chain
            nil_pos = np.flatnonzero(column.nil_positions()).astype(np.int64)
            miss = np.union1d(miss, nil_pos)
            results[self.leftover_basket] = ResultSet(
                names, [projection(miss, snap.column(n)) for n in names]
            )
        return PlanOutput(results=results)

    def describe(self) -> str:
        return f"chained {self.query.name}"


class ReplicatorTransition:
    """Copies every tuple of a source basket into k private baskets.

    This is the explicit cost of the *separate baskets* strategy: the
    stream is replicated once per interested query.
    """

    def __init__(self, name: str, source: Basket, targets: Sequence[Basket]):
        if not targets:
            raise DataCellError("replicator needs at least one target")
        self.name = name
        self.source = source
        self.targets = list(targets)
        self.priority = 5
        self.activations = 0
        self.tuples_copied = 0

    def input_places(self) -> Tuple[Basket]:
        return (self.source,)

    def enabled(self) -> bool:
        return self.source.count >= max(1, self.source.min_count)

    def activate(self) -> ActivationResult:
        snap = self.source.drain()
        names = [n for n in snap.names if n != TIME_COLUMN]
        result = ResultSet(
            names, [snap.column(n) for n in names]
        )
        # propagate the earliest monotonic origin stamp so end-to-end
        # latency survives the replication hop
        mono = snap.runs.oldest() if snap.count else None
        for basket in self.targets:
            basket.append_result(result, mono=mono)
        self.activations += 1
        self.tuples_copied += snap.count * len(self.targets)
        return ActivationResult(
            fired=True,
            tuples_in=snap.count,
            tuples_out=snap.count * len(self.targets),
            consumed=snap.count,
            drained=True,  # the whole source was consumed
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        outs = ", ".join(b.name for b in self.targets)
        return f"Replicator({self.source.name!r} -> [{outs}])"


@dataclass
class StrategyNetwork:
    """What a strategy builder wired together."""

    stream_basket: Basket
    factories: List[Factory]
    output_baskets: Dict[str, Basket]
    extra_transitions: List[object]

    def all_transitions(self) -> List[object]:
        return list(self.extra_transitions) + list(self.factories)


def _columns_of(basket: Basket) -> List[Tuple[str, AtomType]]:
    return [(c.name, c.atom) for c in basket.user_columns]


def build_separate_pipeline(
    stream: Basket,
    queries: Sequence[RangeQuery],
    clock: Optional[Clock] = None,
) -> StrategyNetwork:
    """Separate-baskets strategy: replicate the stream per query."""
    clock = clock or stream.clock
    columns = _columns_of(stream)
    privates, factories, outputs = [], [], {}
    for query in queries:
        private = Basket(f"{stream.name}_{query.name}_in", columns, clock)
        output = Basket(f"{query.name}_out", columns, clock)
        plan = SelectPlan(query, private.name, output.name)
        factories.append(
            Factory(
                query.name,
                plan,
                [InputBinding(private, ConsumeMode.ALL)],
                [output],
            )
        )
        privates.append(private)
        outputs[query.name] = output
    replicator = ReplicatorTransition(
        f"{stream.name}_replicator", stream, privates
    )
    return StrategyNetwork(stream, factories, outputs, [replicator])


def build_shared_pipeline(
    stream: Basket,
    queries: Sequence[RangeQuery],
    clock: Optional[Clock] = None,
) -> StrategyNetwork:
    """Shared-baskets strategy: all queries read the stream basket."""
    clock = clock or stream.clock
    columns = _columns_of(stream)
    factories, outputs = [], {}
    for query in queries:
        output = Basket(f"{query.name}_out", columns, clock)
        plan = SelectPlan(query, stream.name, output.name)
        factories.append(
            Factory(
                query.name,
                plan,
                [InputBinding(stream, ConsumeMode.SHARED)],
                [output],
            )
        )
        outputs[query.name] = output
    return StrategyNetwork(stream, factories, outputs, [])


def build_chained_pipeline(
    stream: Basket,
    queries: Sequence[RangeQuery],
    clock: Optional[Clock] = None,
) -> StrategyNetwork:
    """Disjoint-range chaining: q1 consumes its matches, q2 sees the rest.

    The queries must have pairwise disjoint ranges for the chain to be
    semantically equivalent to the other strategies; the builder checks.
    """
    _check_disjoint(queries)
    clock = clock or stream.clock
    columns = _columns_of(stream)
    factories, outputs = [], {}
    current_input = stream
    for i, query in enumerate(queries):
        output = Basket(f"{query.name}_out", columns, clock)
        last = i == len(queries) - 1
        leftover = (
            None
            if last
            else Basket(f"{stream.name}_chain_{i}", columns, clock)
        )
        plan = ChainedSelectPlan(
            query,
            current_input.name,
            output.name,
            leftover.name if leftover is not None else None,
        )
        # NOTE: an empty Basket is falsy (len == 0) — compare with None.
        outs = [output] + ([leftover] if leftover is not None else [])
        factories.append(
            Factory(
                query.name,
                plan,
                [InputBinding(current_input, ConsumeMode.ALL)],
                outs,
            )
        )
        outputs[query.name] = output
        if leftover is not None:
            current_input = leftover
    return StrategyNetwork(stream, factories, outputs, [])


def _check_disjoint(queries: Sequence[RangeQuery]) -> None:
    intervals = []
    for q in queries:
        lo = -np.inf if q.low is None else q.low
        hi = np.inf if q.high is None else q.high
        intervals.append((lo, hi, q.name))
    intervals.sort()
    for (lo1, hi1, n1), (lo2, hi2, n2) in zip(intervals, intervals[1:]):
        if lo2 <= hi1:
            raise DataCellError(
                f"chained strategy requires disjoint ranges: {n1} and {n2} "
                "overlap"
            )
