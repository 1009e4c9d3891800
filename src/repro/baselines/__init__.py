"""Baseline comparators for the benchmarks and oracles (tuple-at-a-time
DSMS, window re-evaluation references)."""

from .reeval import NaiveReEvalWindow, ReEvalWindowAggregatePlan
from .tuple_engine import (
    MapOperator,
    Operator,
    ProjectOperator,
    SelectOperator,
    SinkOperator,
    TupleEngine,
    WindowAggregateOperator,
)

__all__ = [
    "NaiveReEvalWindow",
    "ReEvalWindowAggregatePlan",
    "TupleEngine",
    "Operator",
    "SelectOperator",
    "ProjectOperator",
    "MapOperator",
    "WindowAggregateOperator",
    "SinkOperator",
]
