"""Window re-evaluation references the oracles compare against."""

from .reeval import NaiveReEvalWindow, ReEvalWindowAggregatePlan

__all__ = [
    "NaiveReEvalWindow",
    "ReEvalWindowAggregatePlan",
]
