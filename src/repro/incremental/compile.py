"""SQL → incremental circuit lowering (circuit code generation + fallback).

:func:`compile_incremental` reads a continuous ``SELECT``'s shape
(:func:`repro.sql.shape.resolve_shape`) and, when it is in the supported
matrix, lowers it to a :class:`CircuitContinuousPlan` — a factory plan
whose per-firing cost is O(|delta|).  Unsupported shapes raise
:class:`IncrementalUnsupported` with a human-readable reason; the engine
catches it and falls back to the re-evaluation (MAL) path *per query*,
recording the reason.

Supported shapes
----------------
``linear``
    select/project/filter over basket expressions, no aggregates and no
    DISTINCT/LIMIT.  Linear operators are their own incremental version
    (lifting commutes with integration), and basket consumption already
    makes each firing a pure delta — so there is no circuit to build:
    :func:`compile_incremental` returns ``None`` and the query registers
    the re-eval ``MalContinuousPlan``, row-for-row identical output.

``aggregate``
    ``SELECT [keys,] aggs FROM [select * from B ...] as x [WHERE ...]
    [GROUP BY keys]`` with COUNT/SUM/AVG/MIN/MAX over one value column.
    A synthesized lift stage (compiled MAL) produces ``(*keys, value)``
    delta rows, folded by
    :class:`~repro.incremental.circuit.IncrementalGroupAggregate`.  The
    output basket is *weighted*: each firing emits the retraction of a
    group's previous result row (``dc_weight = -1``) and the insertion
    of its new one (``+1``); integrating the output reproduces the
    one-shot GROUP BY at every point in time.

``join``
    ``SELECT cols FROM [..] as a, [..] as b WHERE a.k = b.k [AND
    side-local filters]``.  Per-side lift stages feed
    :class:`~repro.incremental.circuit.IncrementalJoin`'s delta-probe
    against integrated per-key state.  Output is weighted like the
    aggregate shape.

Everything else — HAVING, DISTINCT, LIMIT, ORDER BY on aggregates,
cross-side residual predicates, nested baskets in subqueries — falls
back with a reason (``DataCell.incremental_fallbacks``).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BindError, DataCellError, TypeMismatchError
from ..kernel.aggregate import aggregate_atom
from ..kernel.catalog import Catalog
from ..kernel.interpreter import MalInterpreter
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..sql.ast_nodes import ColumnRef, Expr, Literal, Select, SelectItem
from ..sql.compiler import CompiledQuery, MalContinuousPlan, compile_continuous
from ..sql.shape import QueryShape, ShapeError, resolve_shape
from .circuit import IncrementalGroupAggregate, IncrementalJoin
from .zset import WEIGHT_COLUMN, ZSet

__all__ = [
    "IncrementalUnsupported",
    "CircuitContinuousPlan",
    "compile_incremental",
]


class IncrementalUnsupported(DataCellError):
    """The query's shape has no incremental circuit; fall back to re-eval."""


# ======================================================================
# runtime plan
# ======================================================================
class CircuitContinuousPlan:
    """A factory plan executing an incremental circuit.

    ``stages`` are the compiled MAL lift programs (one for an
    aggregate, two for a join), each run as a :class:`MalContinuousPlan`
    over the firing's snapshots; the stateful circuit operator
    (aggregate/join) holds the integrated state that durability
    checkpoints and ``nbytes()`` report.  Every circuit is *weighted*:
    its output rows carry a trailing ``dc_weight`` column.
    """

    weighted = True

    def __init__(
        self,
        kind: str,
        stages: List[CompiledQuery],
        interpreter: MalInterpreter,
        output_basket: str,
        names: List[str],
        atoms: List[AtomType],
    ):
        self.kind = kind
        self.stages = stages
        self.output_basket = output_basket.lower()
        # a stage's snapshot binding and consumption are the MAL plan's
        self._stage_plans = [
            MalContinuousPlan(stage, interpreter, output_basket)
            for stage in stages
        ]
        self.names = names  # output column names, weight last
        self.atoms = atoms
        self.agg: Optional[IncrementalGroupAggregate] = None
        self.join: Optional[IncrementalJoin] = None
        # aggregate shape: output item -> ("key", i) | ("agg", j)
        self.item_plan: List[Tuple[str, int]] = []
        self.n_group_keys = 0
        # join shape: output item -> position in the joined row
        self.out_positions: List[int] = []
        self.deltas_processed = 0  # delta rows folded through the circuit
        self.rows_emitted = 0

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        return list(zip(self.names, self.atoms))

    # ------------------------------------------------------------------
    def run(self, snapshots):
        from ..core.factory import PlanOutput

        output = PlanOutput()
        deltas = []
        for stage in self._stage_plans:
            result = stage.evaluate(snapshots, output.consumed)
            self.deltas_processed += result.count
            deltas.append(ZSet.from_rows(result.rows()))
        if self.kind == "aggregate":
            rows = self._aggregate_rows(self.agg.step(*deltas))
        else:  # join
            rows = self._join_rows(self.join.step_both(*deltas))
        self.rows_emitted += len(rows)
        if rows:
            output.results[self.output_basket] = self._build_result(rows)
        return output

    def _aggregate_rows(self, delta: ZSet) -> List[Tuple[Any, ...]]:
        """Map ``(*keys, *aggs)`` circuit rows to the select-item order,
        appending the weight column."""
        offset = {"key": 0, "agg": self.n_group_keys}
        return [
            (*[row[offset[role] + i] for role, i in self.item_plan], weight)
            for row, weight in delta.items()
        ]

    def _join_rows(self, delta: ZSet) -> List[Tuple[Any, ...]]:
        return [
            (*[row[p] for p in self.out_positions], weight)
            for row, weight in delta.items()
        ]

    def _build_result(self, rows: List[Tuple[Any, ...]]) -> ResultSet:
        from ..kernel.bat import bat_from_values

        columns = list(zip(*rows))
        bats = []
        for atom, col in zip(self.atoms, columns):
            values = [
                int(v) if atom.is_integral and isinstance(v, float) else v
                for v in col
            ]
            bats.append(bat_from_values(atom, values))
        return ResultSet(list(self.names), bats)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"incremental circuit [{self.kind}]"]
        for i, stage in enumerate(self.stages):
            inputs = ", ".join(b.basket for b in stage.basket_inputs)
            lines.append(f"  lift[{i}]: MAL program over {inputs}")
        if self.agg is not None:
            lines.append(
                f"  aggregate: {self.agg.aggregates} "
                f"(grouped={self.agg.grouped}, "
                f"groups={len(self.agg.groups)})"
            )
        if self.join is not None:
            lines.append(
                f"  join: integrated state "
                f"{len(self.join.left_state)}x{len(self.join.right_state)} keys"
            )
        lines.append(
            f"  deltas in: {self.deltas_processed}, "
            f"rows out: {self.rows_emitted}"
        )
        return "\n".join(lines)

    def render_analyze(self) -> str:
        """EXPLAIN ANALYZE for circuit plans: per-stage MAL node timings
        plus the circuit operators' state footprint."""
        parts = [self.describe()]
        for stage in self.stages:
            parts.append(stage.program.render_analyze())
        parts.append(f"circuit state: {self.nbytes()} bytes")
        return "\n".join(parts)

    # -- resource accounting --------------------------------------------
    def nbytes(self) -> int:
        total = 0
        if self.agg is not None:
            total += self.agg.nbytes()
        if self.join is not None:
            total += self.join.nbytes()
        return total

    # -- durability -----------------------------------------------------
    def export_state(self) -> Optional[bytes]:
        state: Dict[str, Any] = {
            "kind": self.kind,
            "deltas_processed": self.deltas_processed,
            "rows_emitted": self.rows_emitted,
        }
        if self.agg is not None:
            state["agg"] = self.agg.export_state()
        if self.join is not None:
            state["join"] = self.join.export_state()
        return pickle.dumps(state, protocol=4)

    def import_state(self, blob: Optional[bytes]) -> None:
        if blob is None:
            raise DataCellError(
                "incremental circuit expected saved state in the "
                "checkpoint but found none"
            )
        state = pickle.loads(blob)
        if state["kind"] != self.kind:
            raise DataCellError(
                f"checkpointed circuit kind {state['kind']!r} does not "
                f"match plan kind {self.kind!r}"
            )
        self.deltas_processed = state["deltas_processed"]
        self.rows_emitted = state["rows_emitted"]
        if self.agg is not None:
            self.agg.import_state(state["agg"])
        if self.join is not None:
            self.join.import_state(state["join"])




# ======================================================================
# circuit lowering
# ======================================================================
def compile_incremental(
    catalog: Catalog,
    stmt: Select,
    interpreter: MalInterpreter,
    output_basket: str,
) -> Optional[CircuitContinuousPlan]:
    """Lower a continuous SELECT onto an incremental circuit.

    Returns ``None`` for a linear query, whose re-eval MAL plan already
    is its own incremental version.  Raises :class:`IncrementalUnsupported`
    when the statement's shape is outside the supported matrix (see
    module docstring) — the caller falls back to the re-evaluation path
    for this query only.
    """
    try:
        shape = resolve_shape(stmt)
    except ShapeError as exc:
        raise IncrementalUnsupported(str(exc)) from None
    if shape.window is not None:
        raise IncrementalUnsupported(
            "WINDOW queries route through the window plan, not the "
            "circuit compiler"
        )
    if shape.kind == "aggregate":
        return _aggregate_circuit(catalog, shape, interpreter, output_basket)
    if shape.kind == "join":
        return _join_circuit(catalog, shape, interpreter, output_basket)
    if stmt.distinct:
        raise IncrementalUnsupported(
            "DISTINCT is not linear over multisets (dedup needs "
            "integrated state)"
        )
    if stmt.limit is not None:
        raise IncrementalUnsupported(
            "outer LIMIT truncates per firing, not per stream"
        )
    return None


def _aggregate_circuit(
    catalog, shape: QueryShape, interpreter, output_basket
) -> CircuitContinuousPlan:
    # lift stage: (*keys, value) rows from the basket expression
    alias = shape.sources[0].binding_name
    value_expr: Expr = (
        ColumnRef(shape.value_column, alias)
        if shape.value_column is not None
        else Literal(1)  # count(*)-only: the value is never read
    )
    items = [
        SelectItem(ColumnRef(k, alias), alias=f"__k{i}")
        for i, k in enumerate(shape.keys)
    ] + [SelectItem(value_expr, alias="__v")]
    compiled = compile_continuous(
        catalog,
        Select(items=items, sources=shape.sources, where=shape.filters[0]),
    )
    # atoms come from the compiled lift, so projections/renames inside
    # the basket expression are handled the same way re-eval handles them
    value_atom = compiled.output_atoms[-1]
    atoms: List[AtomType] = []
    for role, index in shape.item_plan:
        if role == "key":
            atoms.append(compiled.output_atoms[index])
            continue
        try:
            atoms.append(aggregate_atom(shape.aggregates[index], value_atom))
        except TypeMismatchError as exc:
            raise BindError(str(exc)) from None
    plan = CircuitContinuousPlan(
        "aggregate",
        [compiled],
        interpreter,
        output_basket,
        shape.names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.agg = IncrementalGroupAggregate(
        shape.aggregates, grouped=bool(shape.keys)
    )
    plan.item_plan = list(shape.item_plan)
    plan.n_group_keys = len(shape.keys)
    return plan


def _join_circuit(
    catalog, shape: QueryShape, interpreter, output_basket
) -> CircuitContinuousPlan:
    # per-side lift stages: (key, *extras) with side-local filters
    stages = [
        compile_continuous(
            catalog,
            Select(
                items=[
                    SelectItem(ColumnRef(c, source.binding_name), f"__c{i}")
                    for i, c in enumerate(columns)
                ],
                sources=[source],
                where=where,
            ),
        )
        for source, where, columns in zip(
            shape.sources, shape.filters, shape.columns
        )
    ]
    atoms = [
        stages[side].output_atoms[shape.columns[side].index(column)]
        for side, column in shape.items
    ]
    # joined row layout: (*left_row, *right_row_without_key)
    left_width = len(shape.columns[0])

    def position(side: int, column: str) -> int:
        index = shape.columns[side].index(column)
        if side == 0:
            return index
        if index == 0:  # the key: identical on both sides, take left's
            return 0
        return left_width + index - 1

    plan = CircuitContinuousPlan(
        "join",
        stages,
        interpreter,
        output_basket,
        shape.names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.join = IncrementalJoin(left_key=0, right_key=0)
    plan.out_positions = [position(s, c) for s, c in shape.items]
    return plan
