"""Delta-stream (Z-set) incremental execution (DBSP model).

This package implements the incremental execution mode selected with
``DataCell(execution="incremental")``: streams are modelled as sequences
of *Z-sets* (weighted multisets where a weight of ``+1`` is an insert and
``-1`` a retraction), operators are *lifted* to work on deltas, and
stateful operators (aggregates, joins) maintain integrated
state so the cost of each firing is ``O(|delta|)`` instead of
``O(|state|)``.

Layers:

* :mod:`~repro.incremental.zset` — the Z-set value type and its algebra;
* :mod:`~repro.incremental.circuit` — stream operators (lift, delay
  z⁻¹, integrate, differentiate, incremental group-aggregate,
  incremental equi-join) and the retraction-capable aggregate state;
* :mod:`~repro.incremental.compile` — the circuit code generator over
  the query :func:`repro.sql.resolve.resolve` resolves, with per-query
  fallback to the re-evaluation (MAL) path.

Every operator here has a re-evaluation twin; ``repro.simtest.incremental``
is the differential harness proving the two produce identical output.
Window aggregates are not here: every mode runs them on
:class:`repro.core.windows.WindowAggregatePlan`.
See ``docs/incremental.md``.
"""

from .circuit import (
    Delay,
    Differentiate,
    IncrementalGroupAggregate,
    IncrementalJoin,
    Integrate,
    Lift,
    RetractableAggState,
)
from .compile import (
    CircuitContinuousPlan,
    IncrementalUnsupported,
    compile_incremental,
)
from .zset import WEIGHT_COLUMN, ZSet, integrate_weighted_rows

__all__ = [
    "ZSet",
    "WEIGHT_COLUMN",
    "integrate_weighted_rows",
    "Lift",
    "Delay",
    "Integrate",
    "Differentiate",
    "IncrementalGroupAggregate",
    "IncrementalJoin",
    "RetractableAggState",
    "CircuitContinuousPlan",
    "IncrementalUnsupported",
    "compile_incremental",
]
