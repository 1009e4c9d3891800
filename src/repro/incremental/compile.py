"""SQL → incremental circuit code generation for ``CREATE VIEW``.

:func:`compile_incremental` reads the resolved continuous ``SELECT`` of
a view (:func:`repro.sql.resolve.resolve`) and, when it is in the
supported matrix, generates a :class:`CircuitContinuousPlan` — a factory
plan whose per-firing cost is O(|delta|) and whose output is the view's
running result as weighted deltas.  A shape outside the matrix raises
:class:`~repro.errors.BindError` with a human-readable reason, and the
view registers nothing.

Supported shapes (``docs/incremental.md``, "Query compilation"):

``aggregate``
    ``SELECT [keys,] aggs FROM [..] as x [WHERE ...] [GROUP BY keys]``
    with COUNT/SUM/AVG/MIN/MAX over one value column: a lift stage of
    ``(*keys, value)`` delta rows folded by
    :class:`~repro.incremental.circuit.IncrementalGroupAggregate`.  The
    output is *weighted*: per firing, the retraction of a group's
    previous row (``dc_weight = -1``) and the insertion of its new one.
``join``
    ``SELECT cols FROM [..] as a, [..] as b WHERE a.k = b.k [AND
    side-local filters]``: per-side lift stages feed
    :class:`~repro.incremental.circuit.IncrementalJoin`'s delta-probe
    against integrated per-key state; weighted output.

A lift stage is MAL generated from a resolved sub-query of the one
basket expression it reads.  Everything else — a linear query (its
continuous SELECT already answers each delta), HAVING, DISTINCT, LIMIT,
ORDER BY on aggregates, cross-side residual predicates, nested baskets
in subqueries — is rejected with a reason.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import BindError, DataCellError, TypeMismatchError
from ..kernel.aggregate import aggregate_atom
from ..kernel.bat import BAT, bat_from_values
from ..kernel.interpreter import MalInterpreter
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..sql.ast_nodes import ColumnRef, Expr, Literal
from ..sql.compiler import (
    CompiledQuery,
    MalContinuousPlan,
    generate_continuous,
)
from ..sql.resolve import (
    BasketFrom,
    ResolvedSelect,
    ShapeError,
    column_refs,
    stream_aggregate,
)
from .circuit import IncrementalGroupAggregate, IncrementalJoin
from .zset import WEIGHT_COLUMN, ZSet

__all__ = [
    "CircuitContinuousPlan",
    "compile_incremental",
]


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
        results = [
            stage.evaluate(snapshots, output.consumed)
            for stage in self._stage_plans
        ]
        self.deltas_processed += sum(result.count for result in results)
        if self.kind == "aggregate":
            *keys, values = results[0].bats
            columns = self.agg.step(keys, values)
            delta = None if columns is None else self._aggregate_result(
                columns
            )
        else:  # join
            delta = self._join_result(self.join.step_both(*(
                ZSet.from_rows(result.rows()) for result in results
            )))
        if delta is not None:
            self.rows_emitted += delta.count
            output.results[self.output_basket] = delta
        return output

    def initial_result(self) -> Optional[ResultSet]:
        """What the view holds before its first firing: an aggregate
        without GROUP BY answers one row over no rows; any other view
        holds nothing."""
        if self.agg is None or self.agg.key_atoms:
            return None
        weight = BAT.adopt(AtomType.LNG, np.ones(1, np.int64))
        return self._aggregate_result(
            self.agg.result(np.zeros(1, np.int64)) + [weight]
        )

    def _aggregate_result(self, columns: List[BAT]) -> ResultSet:
        """The operator's ``(*keys, *aggregates, weight)`` columns in the
        select-item order, the weight last."""
        offset = {"key": 0, "agg": len(self.agg.key_atoms)}
        return ResultSet(self.names, [
            columns[offset[role] + i] for role, i in self.item_plan
        ] + columns[-1:])

    def _join_result(self, delta: ZSet) -> Optional[ResultSet]:
        """The joined rows' output columns, the weight last."""
        rows = [
            (*[row[p] for p in self.out_positions], weight)
            for row, weight in delta.items()
        ]
        if not rows:
            return None
        columns = zip(self.atoms, zip(*rows))
        return ResultSet(
            self.names,
            [bat_from_values(atom, list(col)) for atom, col in columns],
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"incremental circuit [{self.kind}]"]
        for i, stage in enumerate(self.stages):
            inputs = ", ".join(b.basket for b in stage.basket_inputs)
            lines.append(f"  lift[{i}]: MAL program over {inputs}")
        if self.agg is not None:
            lines.append(
                f"  aggregate: {self.agg.aggregates} "
                f"(groups={self.agg.groups})"
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
            self.agg.import_state(state["agg"], self.stages[0].program.name)
        if self.join is not None:
            self.join.import_state(state["join"])




# ======================================================================
# circuit code generation
# ======================================================================
def compile_incremental(
    query: ResolvedSelect,
    interpreter: MalInterpreter,
    output_basket: str,
) -> CircuitContinuousPlan:
    """Generate the incremental circuit of a view's resolved continuous
    SELECT (a WINDOW query is rejected before it gets here).

    Raises :class:`~repro.errors.BindError` when the statement's shape
    is outside the supported matrix (see module docstring).
    """
    baskets = [s for s in query.leaves() if isinstance(s, BasketFrom)]
    if not baskets:
        raise BindError("not a continuous query")
    if query.aggregating:
        return _aggregate_circuit(query, interpreter, output_basket)
    if len(baskets) == 2 and len(query.from_items) == 2 and (
        query.joins[0] is not None or query.where
    ):
        _plain_output(query, "join")
        if query.joins[0] is None:
            raise BindError("join circuits need an equi-join key (a.k = b.k)")
        return _join_circuit(query, interpreter, output_basket)
    if query.distinct:
        raise BindError(
            "DISTINCT is not linear over multisets (dedup needs "
            "integrated state)"
        )
    if query.limit is not None:
        raise BindError("outer LIMIT truncates per firing, not per stream")
    raise BindError(
        "a linear query has no circuit: its continuous SELECT already "
        "emits each firing's delta"
    )


def _plain_output(query: ResolvedSelect, kind: str) -> None:
    if query.order or query.limit is not None or query.distinct:
        raise BindError(
            f"ORDER BY / LIMIT / DISTINCT do not compose with delta {kind} "
            "output"
        )


def _aggregate_circuit(
    query: ResolvedSelect, interpreter, output_basket
) -> CircuitContinuousPlan:
    if query.group_filter is not None:
        raise BindError(
            "HAVING over incremental aggregates is not supported yet"
        )
    _plain_output(query, "aggregate")
    source = query.from_items[0]
    if len(query.from_items) != 1 or not isinstance(source, BasketFrom):
        raise BindError(
            "aggregate circuits need exactly one basket expression source"
        )
    try:
        shape = stream_aggregate(query)
    except ShapeError as exc:
        raise BindError(str(exc)) from None
    # lift stage: (*keys, value) rows from the basket expression
    value: Expr = (
        ColumnRef(shape.value_column, source.alias)
        if shape.value_column is not None
        else Literal(1)  # count(*)-only: the value is never read
    )
    items: List[Tuple[Expr, str]] = [
        (ColumnRef(key, source.alias), f"__k{i}")
        for i, key in enumerate(shape.keys)
    ]
    compiled = generate_continuous(
        ResolvedSelect.lift(
            source, items + [(value, "__v")], [c.expr for c in query.where]
        )
    )
    # atoms come from the compiled lift, so projections/renames inside
    # the basket expression are handled the same way re-eval handles them
    value_atom = compiled.output_atoms[-1]
    try:  # SUM and AVG over VARCHAR are refused
        typed = [aggregate_atom(name, value_atom) for name in shape.aggregates]
    except TypeMismatchError as exc:
        raise BindError(str(exc)) from None
    roles = {"key": compiled.output_atoms, "agg": typed}
    atoms = [roles[role][index] for role, index in shape.layout]
    plan = CircuitContinuousPlan(
        "aggregate",
        [compiled],
        interpreter,
        output_basket,
        query.names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.agg = IncrementalGroupAggregate(
        shape.aggregates, compiled.output_atoms[:-1], value_atom
    )
    plan.item_plan = list(shape.layout)
    return plan


def _join_circuit(
    query: ResolvedSelect, interpreter, output_basket
) -> CircuitContinuousPlan:
    for conj in query.where:  # the conjuncts beside the equi key
        bare = [ref for ref in column_refs(conj.expr) if ref.table is None]
        if bare:
            raise BindError(
                f"join circuits need qualified column references "
                f"(got bare {bare[0].name!r})"
            )
        if len(conj.reads) > 1:
            raise BindError(
                "predicates spanning both join sides (beyond the equi key) "
                "are not supported"
            )
        if not conj.reads:
            raise BindError(
                "constant predicates in join WHERE are not supported"
            )
    # per side, the columns its lift stage reads: the equi key first
    aliases = [source.alias for source in query.from_items]
    columns = [[ref.name.lower()] for ref in query.joins[0]]
    picks: List[Tuple[int, str]] = []  # per select item: (side, column)
    for item in query.items:
        expr = item.expr
        if item.star:
            raise BindError(
                "join circuits need an explicit select list (no *)"
            )
        if not isinstance(expr, ColumnRef) or expr.table is None:
            raise BindError(
                "join select items must be qualified column references"
            )
        side = aliases.index(expr.table.lower())
        column = expr.name.lower()
        if column not in columns[side]:
            columns[side].append(column)
        picks.append((side, column))
    # per-side lift stages: (key, *extras) under side-local filters
    stages = [
        generate_continuous(
            ResolvedSelect.lift(
                source,
                [
                    (ColumnRef(c, source.alias), f"__c{i}")
                    for i, c in enumerate(columns[side])
                ],
                [c.expr for c in query.where if c.reads == {side}],
            )
        )
        for side, source in enumerate(query.from_items)
    ]
    picked = [(side, columns[side].index(column)) for side, column in picks]
    atoms = [stages[side].output_atoms[i] for side, i in picked]
    plan = CircuitContinuousPlan(
        "join",
        stages,
        interpreter,
        output_basket,
        query.names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.join = IncrementalJoin(left_key=0, right_key=0)
    # joined row: (*left row, *right row without its key); the key is
    # identical on both sides, so it is read from the left
    offset = (0, len(columns[0]) - 1)
    plan.out_positions = [offset[side] + i if i else 0 for side, i in picked]
    return plan
