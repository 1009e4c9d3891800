"""SQL → incremental circuit compiler (shape detection + fallback).

:func:`compile_incremental` inspects a parsed continuous ``SELECT`` and,
when its shape is in the supported matrix, lowers it to a
:class:`CircuitContinuousPlan` — a factory plan whose per-firing cost is
O(|delta|).  Unsupported shapes raise :class:`IncrementalUnsupported`
with a human-readable reason; the engine catches it and falls back to
the re-evaluation (MAL) path *per query*, recording the reason.

Supported shapes
----------------
``linear``
    select/project/filter over basket expressions, no aggregates and no
    DISTINCT/LIMIT.  Linear operators are their own incremental version
    (lifting commutes with integration), and basket consumption already
    makes each firing a pure delta — the compiled MAL program runs
    unchanged as the circuit's lift stage, and the output is row-for-row
    identical to re-evaluation.

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

import numpy as np

from ..errors import BindError, DataCellError, TypeMismatchError
from ..kernel.aggregate import aggregate_atom
from ..kernel.catalog import Catalog
from ..kernel.interpreter import MalInterpreter
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..sql.ast_nodes import (
    BasketExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    Select,
    SelectItem,
    Star,
    walk_sources,
)
from ..sql.compiler import (
    AGGREGATES,
    CompiledQuery,
    _contains_aggregate,
    _default_name,
    _join_and,
    _split_and,
    compile_continuous,
)
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

    ``stages`` are compiled MAL lift programs (one for linear/aggregate,
    two for join); the stateful circuit operator (aggregate/join) holds
    the integrated state that durability checkpoints and ``nbytes()``
    report.  ``weighted`` marks plans whose output rows carry a trailing
    ``dc_weight`` column.
    """

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
        self.interpreter = interpreter
        self.output_basket = output_basket.lower()
        self.names = names  # output column names (incl. weight if any)
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

    @property
    def weighted(self) -> bool:
        return self.kind in ("aggregate", "join")

    @property
    def basket_inputs(self):
        return [b for stage in self.stages for b in stage.basket_inputs]

    def output_schema(self) -> List[Tuple[str, AtomType]]:
        return list(zip(self.names, self.atoms))

    # ------------------------------------------------------------------
    def _run_stage(
        self, stage: CompiledQuery, snapshots, consumed: Dict[str, np.ndarray]
    ) -> ResultSet:
        env: Dict[str, Any] = {}
        for binding in stage.basket_inputs:
            snap = snapshots[binding.basket]
            for name, bat in zip(snap.names, snap.bats):
                env[f"{binding.alias}.{name}"] = bat
        final = self.interpreter.execute(stage.program, env)
        for binding in stage.basket_inputs:
            consumed[binding.basket] = np.asarray(
                final[binding.consumed_var], dtype=np.int64
            )
        return final[stage.program.output]

    def run(self, snapshots):
        from ..core.factory import PlanOutput

        consumed: Dict[str, np.ndarray] = {}
        if self.kind == "lift":
            result = self._run_stage(self.stages[0], snapshots, consumed)
            self.deltas_processed += result.count
            self.rows_emitted += result.count
            output = PlanOutput(consumed=consumed)
            if result.count:
                output.results[self.output_basket] = result
            return output
        if self.kind == "aggregate":
            result = self._run_stage(self.stages[0], snapshots, consumed)
            delta = ZSet.from_rows(result.rows())
            self.deltas_processed += result.count
            out_delta = self.agg.step(delta)
            rows = self._aggregate_rows(out_delta)
        else:  # join
            dleft = self._stage_delta(0, snapshots, consumed)
            dright = self._stage_delta(1, snapshots, consumed)
            out_delta = self.join.step_both(dleft, dright)
            rows = self._join_rows(out_delta)
        self.rows_emitted += len(rows)
        output = PlanOutput(consumed=consumed)
        if rows:
            output.results[self.output_basket] = self._build_result(rows)
        return output

    def _stage_delta(self, index, snapshots, consumed) -> ZSet:
        result = self._run_stage(self.stages[index], snapshots, consumed)
        self.deltas_processed += result.count
        return ZSet.from_rows(result.rows())

    def _aggregate_rows(self, delta: ZSet) -> List[Tuple[Any, ...]]:
        """Map ``(*keys, *aggs)`` circuit rows to the select-item order,
        appending the weight column."""
        rows: List[Tuple[Any, ...]] = []
        for row, weight in delta.items():
            out: List[Any] = []
            for role, index in self.item_plan:
                if role == "key":
                    out.append(row[index])
                else:
                    out.append(row[self.n_group_keys + index])
            rows.append((*out, weight))
        return rows

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
            label = "lift" if len(self.stages) == 1 else f"lift[{i}]"
            inputs = ", ".join(b.basket for b in stage.basket_inputs)
            lines.append(f"  {label}: MAL program over {inputs}")
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
        if self.kind == "lift":
            return None  # pure lift is stateless, like MalContinuousPlan
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
        if self.kind == "lift":
            if blob is not None:
                raise DataCellError(
                    "lift circuit is stateless but a checkpoint carried "
                    "plan state"
                )
            return
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
# shape detection
# ======================================================================
def compile_incremental(
    catalog: Catalog,
    stmt: Select,
    interpreter: MalInterpreter,
    output_basket: str,
) -> CircuitContinuousPlan:
    """Lower a continuous SELECT onto an incremental circuit.

    Raises :class:`IncrementalUnsupported` when the statement's shape is
    outside the supported matrix (see module docstring) — the caller
    falls back to the re-evaluation path for this query only.
    """
    if stmt.window is not None:
        raise IncrementalUnsupported(
            "WINDOW queries route through the window executor, not the "
            "circuit compiler"
        )
    sources = list(stmt.sources)
    leaves = [leaf for s in sources for leaf in walk_sources(s)]
    baskets = [s for s in leaves if isinstance(s, BasketExpr)]
    if not baskets:
        raise IncrementalUnsupported("not a continuous query")
    has_aggs = any(
        _contains_aggregate(i.expr) for i in stmt.items
    ) or (stmt.having is not None and _contains_aggregate(stmt.having))
    if has_aggs or stmt.group_by:
        return _compile_aggregate_shape(
            catalog, stmt, interpreter, output_basket
        )
    if len(baskets) == 2 and len(sources) == 2 and stmt.where is not None:
        plan = _try_join_shape(catalog, stmt, interpreter, output_basket)
        if plan is not None:
            return plan
    return _compile_linear_shape(catalog, stmt, interpreter, output_basket)


def _compile_linear_shape(
    catalog, stmt, interpreter, output_basket
) -> CircuitContinuousPlan:
    if stmt.distinct:
        raise IncrementalUnsupported(
            "DISTINCT is not linear over multisets (dedup needs "
            "integrated state)"
        )
    if stmt.limit is not None:
        raise IncrementalUnsupported(
            "outer LIMIT truncates per firing, not per stream"
        )
    compiled = compile_continuous(catalog, stmt)
    plan = CircuitContinuousPlan(
        "lift",
        [compiled],
        interpreter,
        output_basket,
        list(compiled.output_names),
        list(compiled.output_atoms),
    )
    return plan


def _single_basket(stmt: Select) -> BasketExpr:
    if len(stmt.sources) != 1 or not isinstance(stmt.sources[0], BasketExpr):
        raise IncrementalUnsupported(
            "aggregate circuits need exactly one basket expression source"
        )
    return stmt.sources[0]


def _compile_aggregate_shape(
    catalog, stmt, interpreter, output_basket
) -> CircuitContinuousPlan:
    if stmt.having is not None:
        raise IncrementalUnsupported(
            "HAVING over incremental aggregates is not supported yet"
        )
    if stmt.order_by or stmt.limit is not None or stmt.distinct:
        raise IncrementalUnsupported(
            "ORDER BY / LIMIT / DISTINCT do not compose with delta "
            "aggregate output"
        )
    source = _single_basket(stmt)
    alias = source.binding_name
    # group keys: plain column refs of the stream
    keys: List[str] = []
    for gexpr in stmt.group_by:
        if not isinstance(gexpr, ColumnRef):
            raise IncrementalUnsupported(
                "GROUP BY must name stream columns directly"
            )
        keys.append(gexpr.name.lower())
    # select items: keys and aggregates over one value column
    aggregates: List[str] = []
    value_column: Optional[str] = None
    item_plan: List[Tuple[str, int]] = []
    names: List[str] = []
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, ColumnRef):
            col = expr.name.lower()
            if col not in keys:
                raise IncrementalUnsupported(
                    f"column {col!r} must appear in GROUP BY or inside "
                    "an aggregate"
                )
            item_plan.append(("key", keys.index(col)))
            names.append((item.alias or col).lower())
            continue
        if not isinstance(expr, FuncCall) or expr.name not in AGGREGATES:
            raise IncrementalUnsupported(
                "select items must be group keys or aggregate calls"
            )
        if expr.distinct:
            raise IncrementalUnsupported(
                "DISTINCT aggregates have no retraction-capable state here"
            )
        if expr.star:
            agg_name = "count_star"
        else:
            if len(expr.args) != 1 or not isinstance(
                expr.args[0], ColumnRef
            ):
                raise IncrementalUnsupported(
                    "aggregate arguments must be plain stream columns"
                )
            column = expr.args[0].name.lower()
            if value_column is None:
                value_column = column
            elif column != value_column:
                raise IncrementalUnsupported(
                    "all aggregates must target the same stream column"
                )
            agg_name = expr.name
        item_plan.append(("agg", len(aggregates)))
        aggregates.append(agg_name)
        names.append((item.alias or _default_name(expr, len(names))).lower())
    if not aggregates:
        raise IncrementalUnsupported("no aggregates in the select list")
    # lift stage: (*keys, value) rows from the basket expression
    value_expr: Expr = (
        ColumnRef(value_column, alias)
        if value_column is not None
        else Literal(1)  # count(*)-only: the value is never read
    )
    lift_items = [
        SelectItem(ColumnRef(k, alias), alias=f"__k{i}")
        for i, k in enumerate(keys)
    ] + [SelectItem(value_expr, alias="__v")]
    lift_stmt = Select(
        items=lift_items, sources=[source], where=stmt.where
    )
    compiled = compile_continuous(catalog, lift_stmt)
    # atoms come from the compiled lift, so projections/renames inside
    # the basket expression are handled the same way re-eval handles them
    key_atoms = list(compiled.output_atoms[: len(keys)])
    value_atom = compiled.output_atoms[len(keys)]
    atoms: List[AtomType] = []
    agg_index = 0
    for role, index in item_plan:
        if role == "key":
            atoms.append(key_atoms[index])
        else:
            agg_name = aggregates[agg_index]
            agg_index += 1
            try:
                atoms.append(aggregate_atom(agg_name, value_atom))
            except TypeMismatchError as exc:
                raise BindError(str(exc)) from None
    plan = CircuitContinuousPlan(
        "aggregate",
        [compiled],
        interpreter,
        output_basket,
        names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.agg = IncrementalGroupAggregate(aggregates, grouped=bool(keys))
    plan.item_plan = item_plan
    plan.n_group_keys = len(keys)
    return plan


def _side_of(
    expr: Expr, aliases: Tuple[str, str]
) -> Optional[int]:
    """Which join side (0/1) an expression's columns belong to.

    ``None`` for constants; raises :class:`IncrementalUnsupported` on a
    cross-side or unqualified reference.
    """
    sides = set()

    def visit(e: Expr) -> None:
        if isinstance(e, ColumnRef):
            if e.table is None:
                raise IncrementalUnsupported(
                    f"join circuits need qualified column references "
                    f"(got bare {e.name!r})"
                )
            table = e.table.lower()
            if table not in aliases:
                raise IncrementalUnsupported(
                    f"unknown alias {e.table!r} in join predicate"
                )
            sides.add(aliases.index(table))
            return
        for attr in ("operand", "left", "right", "low", "high", "pattern"):
            child = getattr(e, attr, None)
            if isinstance(child, Expr):
                visit(child)
        for child in getattr(e, "args", []) or []:
            visit(child)
        for child in getattr(e, "items", []) or []:
            if isinstance(child, Expr):
                visit(child)

    visit(expr)
    if len(sides) > 1:
        raise IncrementalUnsupported(
            "predicates spanning both join sides (beyond the equi key) "
            "are not supported"
        )
    return sides.pop() if sides else None


def _try_join_shape(
    catalog, stmt, interpreter, output_basket
) -> Optional[CircuitContinuousPlan]:
    """Compile the two-basket equi-join shape; None when WHERE has no
    equi conjunct (the caller then treats the query as linear)."""
    if stmt.order_by or stmt.limit is not None or stmt.distinct:
        raise IncrementalUnsupported(
            "ORDER BY / LIMIT / DISTINCT do not compose with delta join "
            "output"
        )
    left_src, right_src = stmt.sources
    aliases = (left_src.binding_name, right_src.binding_name)
    conjuncts = _split_and(stmt.where)
    equi: Optional[Tuple[str, str]] = None  # (left col, right col)
    residual: List[Expr] = []
    for conj in conjuncts:
        if (
            equi is None
            and isinstance(conj, BinaryOp)
            and conj.op == "=="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
            and conj.left.table is not None
            and conj.right.table is not None
        ):
            tables = (conj.left.table.lower(), conj.right.table.lower())
            if tables == aliases:
                equi = (conj.left.name.lower(), conj.right.name.lower())
                continue
            if tables == (aliases[1], aliases[0]):
                equi = (conj.right.name.lower(), conj.left.name.lower())
                continue
        residual.append(conj)
    if equi is None:
        return None
    side_filters: List[List[Expr]] = [[], []]
    for conj in residual:
        side = _side_of(conj, aliases)
        if side is None:
            raise IncrementalUnsupported(
                "constant predicates in join WHERE are not supported"
            )
        side_filters[side].append(conj)
    # output items: qualified column refs, mapped onto the joined row
    side_columns: List[List[str]] = [[equi[0]], [equi[1]]]
    out_specs: List[Tuple[int, str]] = []  # (side, column)
    names: List[str] = []
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, Star):
            raise IncrementalUnsupported(
                "join circuits need an explicit select list (no *)"
            )
        if not isinstance(expr, ColumnRef) or expr.table is None:
            raise IncrementalUnsupported(
                "join select items must be qualified column references"
            )
        table = expr.table.lower()
        if table not in aliases:
            raise IncrementalUnsupported(
                f"unknown alias {expr.table!r} in select list"
            )
        side = aliases.index(table)
        column = expr.name.lower()
        if column not in side_columns[side]:
            side_columns[side].append(column)
        out_specs.append((side, column))
        names.append((item.alias or column).lower())
    # per-side lift stages: (key, *extras) with side-local filters
    stages: List[CompiledQuery] = []
    for side, src in enumerate((left_src, right_src)):
        items = [
            SelectItem(ColumnRef(c, aliases[side]), alias=f"__c{i}")
            for i, c in enumerate(side_columns[side])
        ]
        lift_stmt = Select(
            items=items,
            sources=[src],
            where=_join_and(side_filters[side]),
        )
        stages.append(compile_continuous(catalog, lift_stmt))
    atoms = [
        stages[side].output_atoms[side_columns[side].index(column)]
        for side, column in out_specs
    ]
    # joined row layout: (*left_row, *right_row_without_key)
    left_width = len(side_columns[0])

    def position(side: int, column: str) -> int:
        index = side_columns[side].index(column)
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
        names + [WEIGHT_COLUMN],
        atoms + [AtomType.LNG],
    )
    plan.join = IncrementalJoin(left_key=0, right_key=0)
    plan.out_positions = [position(s, c) for s, c in out_specs]
    return plan
