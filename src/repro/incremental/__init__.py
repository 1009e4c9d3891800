"""Delta-stream (Z-set) incremental execution (DBSP model).

This package maintains ``CREATE VIEW`` results — the running answer of
a continuous SELECT, delivered as weighted deltas.  Streams are modelled
as sequences of *Z-sets* (weighted multisets where a weight of ``+1`` is
an insert and ``-1`` a retraction), operators are *lifted* to work on
deltas, and stateful operators (aggregates, joins) maintain integrated
state so the cost of each firing is ``O(|delta|)`` instead of
``O(|state|)``.

Layers:

* :mod:`~repro.incremental.zset` — the Z-set value type and its algebra;
* :mod:`~repro.incremental.circuit` — the stateful stream operators:
  the incremental group-aggregate, which folds each delta into the
  kernel's partials, and the incremental equi-join;
* :mod:`~repro.incremental.compile` — the circuit code generator over
  the query :func:`repro.sql.resolve.resolve` resolves; a shape with
  no circuit is rejected with its reason.

The view episodes of ``python -m repro.simtest.run`` prove that a
view's integrated output equals the one-shot query over everything
delivered, at every quiescent point.  Window aggregates are not here: a WINDOW query is a
continuous SELECT on :class:`repro.core.windows.WindowAggregatePlan`.
See ``docs/incremental.md``.
"""

from .circuit import (
    IncrementalGroupAggregate,
    IncrementalJoin,
)
from .compile import (
    CircuitContinuousPlan,
    compile_incremental,
)
from .zset import WEIGHT_COLUMN, ZSet, integrate_weighted_rows

__all__ = [
    "ZSet",
    "WEIGHT_COLUMN",
    "integrate_weighted_rows",
    "IncrementalGroupAggregate",
    "IncrementalJoin",
    "CircuitContinuousPlan",
    "compile_incremental",
]
