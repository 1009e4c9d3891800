"""Resolve a continuous SELECT's shape once, for every plan lowering.

Paper §3.1 builds windows "by scheduling and plan choice", and DBSP
treats an incremental circuit as one more code generator over the same
query.  :func:`resolve_shape` reads a continuous SELECT once and returns
its :class:`QueryShape`, or raises :class:`ShapeError` with the reason
it fits none.  The window lowering (:func:`repro.core.lowering.
lower_window`) and the circuit lowering (:func:`repro.incremental.
compile.compile_incremental`) read the shape and add only their own
limits; the MAL code generator lowers any SELECT and needs no shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..errors import SqlError
from .ast_nodes import (
    BasketExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Select,
    Star,
    walk_sources,
)
from .compiler import (
    AGGREGATES,
    _contains_aggregate,
    _default_name,
    _join_and,
    _split_and,
)

__all__ = ["ShapeError", "QueryShape", "resolve_shape"]


class ShapeError(SqlError):
    """The query does not fit the shape a lowering needs; the message is
    the reason."""


@dataclass
class QueryShape:
    """What a continuous SELECT computes, whatever plan runs it.

    ``kind`` is ``"aggregate"`` (a WINDOW query too), ``"join"`` or
    ``"linear"`` (anything else).  ``sources[i]`` is a basket expression
    read under ``filters[i]``: an aggregate's one source with its WHERE,
    or each join side with its side-local conjuncts.  ``names`` are the
    select items' output names.  Aggregate: ``item_plan`` maps each item
    to ``("key", i)`` or ``("agg", j)``.  Join: ``columns[side]`` lists
    the columns read per side, the equi-join key first, and ``items``
    maps each select item to ``(side, column)``.
    """

    kind: str
    sources: List[BasketExpr] = field(default_factory=list)
    filters: List[Optional[Expr]] = field(default_factory=list)
    names: List[str] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    aggregates: List[str] = field(default_factory=list)
    value_column: Optional[str] = None
    item_plan: List[Tuple[str, int]] = field(default_factory=list)
    columns: List[List[str]] = field(default_factory=list)
    items: List[Tuple[int, str]] = field(default_factory=list)
    window: Any = None  # a core.windows.WindowSpec


def resolve_shape(stmt: Select) -> QueryShape:
    """Read ``stmt`` once; raises :class:`ShapeError` when it fits no
    shape (the reasons are the circuit's fallback reasons)."""
    sources = list(stmt.sources)
    leaves = [leaf for s in sources for leaf in walk_sources(s)]
    baskets = [s for s in leaves if isinstance(s, BasketExpr)]
    if not baskets:
        raise ShapeError("not a continuous query")
    if (
        stmt.window is not None
        or stmt.group_by
        or any(_contains_aggregate(i.expr) for i in stmt.items)
        or (stmt.having is not None and _contains_aggregate(stmt.having))
    ):
        shape = _resolve_aggregate(stmt)
        if stmt.window is not None:
            from ..core.windows import WindowMode, WindowSpec

            mode = WindowMode.TIME if stmt.window_time else WindowMode.COUNT
            shape.window = WindowSpec(mode, stmt.window, stmt.window_slide)
        return shape
    if len(baskets) == 2 and len(sources) == 2 and stmt.where is not None:
        shape = _resolve_join(stmt)
        if shape is not None:
            return shape
    return QueryShape("linear")


def _resolve_aggregate(stmt: Select) -> QueryShape:
    if stmt.having is not None:
        raise ShapeError(
            "HAVING over incremental aggregates is not supported yet"
        )
    if stmt.order_by or stmt.limit is not None or stmt.distinct:
        raise ShapeError(
            "ORDER BY / LIMIT / DISTINCT do not compose with delta "
            "aggregate output"
        )
    if len(stmt.sources) != 1 or not isinstance(stmt.sources[0], BasketExpr):
        raise ShapeError(
            "aggregate circuits need exactly one basket expression source"
        )
    shape = QueryShape("aggregate", [stmt.sources[0]], [stmt.where])
    # group keys: plain column refs of the stream
    for gexpr in stmt.group_by:
        if not isinstance(gexpr, ColumnRef):
            raise ShapeError("GROUP BY must name stream columns directly")
        shape.keys.append(gexpr.name.lower())
    # select items: keys and aggregates over one value column
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, ColumnRef):
            col = expr.name.lower()
            if col not in shape.keys:
                raise ShapeError(
                    f"column {col!r} must appear in GROUP BY or inside "
                    "an aggregate"
                )
            shape.item_plan.append(("key", shape.keys.index(col)))
            shape.names.append((item.alias or col).lower())
            continue
        if not isinstance(expr, FuncCall) or expr.name not in AGGREGATES:
            raise ShapeError(
                "select items must be group keys or aggregate calls"
            )
        if expr.distinct:
            raise ShapeError(
                "DISTINCT aggregates have no retraction-capable state here"
            )
        if expr.star:
            agg_name = "count_star"
        else:
            if len(expr.args) != 1 or not isinstance(
                expr.args[0], ColumnRef
            ):
                raise ShapeError(
                    "aggregate arguments must be plain stream columns"
                )
            column = expr.args[0].name.lower()
            if shape.value_column is None:
                shape.value_column = column
            elif column != shape.value_column:
                raise ShapeError(
                    "all aggregates must target the same stream column"
                )
            agg_name = expr.name
        shape.item_plan.append(("agg", len(shape.aggregates)))
        shape.aggregates.append(agg_name)
        shape.names.append(
            (item.alias or _default_name(expr, len(shape.names))).lower()
        )
    if not shape.aggregates:
        raise ShapeError("no aggregates in the select list")
    return shape


def _side_of(expr: Expr, aliases: Tuple[str, str]) -> Optional[int]:
    """Which join side (0/1) an expression's columns belong to.

    ``None`` for constants; raises :class:`ShapeError` on a cross-side
    or unqualified reference.
    """
    sides = set()

    def visit(e: Any) -> None:
        if isinstance(e, ColumnRef):
            if e.table is None:
                raise ShapeError(
                    f"join circuits need qualified column references "
                    f"(got bare {e.name!r})"
                )
            table = e.table.lower()
            if table not in aliases:
                raise ShapeError(
                    f"unknown alias {e.table!r} in join predicate"
                )
            sides.add(aliases.index(table))
        elif isinstance(e, Expr):
            visit(list(vars(e).values()))
        elif isinstance(e, (list, tuple)):  # args, IN items, CASE arms
            for child in e:
                visit(child)

    visit(expr)
    if len(sides) > 1:
        raise ShapeError(
            "predicates spanning both join sides (beyond the equi key) "
            "are not supported"
        )
    return sides.pop() if sides else None


def _resolve_join(stmt: Select) -> Optional[QueryShape]:
    """The two-basket equi-join shape; None when WHERE has no equi
    conjunct (the query is then linear)."""
    if stmt.order_by or stmt.limit is not None or stmt.distinct:
        raise ShapeError(
            "ORDER BY / LIMIT / DISTINCT do not compose with delta join "
            "output"
        )
    left_src, right_src = stmt.sources
    aliases = (left_src.binding_name, right_src.binding_name)
    equi: Optional[Tuple[str, str]] = None  # (left col, right col)
    residual: List[Expr] = []
    for conj in _split_and(stmt.where):
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
            raise ShapeError(
                "constant predicates in join WHERE are not supported"
            )
        side_filters[side].append(conj)
    # output items: qualified column refs, mapped onto the joined row
    columns = [[equi[0]], [equi[1]]]
    items: List[Tuple[int, str]] = []
    names: List[str] = []
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, Star):
            raise ShapeError(
                "join circuits need an explicit select list (no *)"
            )
        if not isinstance(expr, ColumnRef) or expr.table is None:
            raise ShapeError(
                "join select items must be qualified column references"
            )
        table = expr.table.lower()
        if table not in aliases:
            raise ShapeError(f"unknown alias {expr.table!r} in select list")
        side = aliases.index(table)
        column = expr.name.lower()
        if column not in columns[side]:
            columns[side].append(column)
        items.append((side, column))
        names.append((item.alias or column).lower())
    return QueryShape(
        "join",
        list(stmt.sources),
        [_join_and(side_filters[0]), _join_and(side_filters[1])],
        names,
        columns=columns,
        items=items,
    )
