"""One lowering for continuous SQL: a statement → the plan a factory runs.

:func:`lower_continuous` is the one entry of every continuous SELECT and
every ``CREATE VIEW``, for registration (``DataCell._submit_select``)
and ``DataCell.explain``.  It resolves the statement once
(:func:`repro.sql.resolve.resolve`) and hands the resolved query to one
code generator, chosen by what the SQL text asks for:

* a continuous SELECT answers each firing over the tuples it consumed
  (§2.6): a WINDOW query becomes the window aggregate plan (§3.1:
  windows by plan choice), everything else the compiled MAL program;
* a view is the running result of its SELECT, maintained as a Z-set
  circuit (DBSP); a shape with no circuit is a :class:`BindError` that
  says why.
"""

from __future__ import annotations

from typing import Union

from ..errors import BindError, SqlError
from ..incremental.compile import CircuitContinuousPlan, compile_incremental
from ..kernel.catalog import Catalog
from ..kernel.interpreter import MalInterpreter
from ..kernel.types import AtomType
from ..sql.ast_nodes import CreateView, Select
from ..sql.compiler import MalContinuousPlan, generate_continuous
from ..sql.resolve import (
    BasketFrom,
    ResolvedSelect,
    ShapeError,
    resolve,
    stream_aggregate,
)
from .basket import TIME_COLUMN
from .windows import WindowAggregatePlan

__all__ = ["lower_continuous", "lower_window"]


def lower_continuous(
    catalog: Catalog,
    stmt: Union[Select, CreateView],
    interpreter: MalInterpreter,
    output_basket: str,
) -> Union[WindowAggregatePlan, CircuitContinuousPlan, MalContinuousPlan]:
    """Lower a continuous SELECT, or a view over one, to its plan."""
    view = isinstance(stmt, CreateView)
    query = resolve(catalog, stmt.select if view else stmt)
    if query.window is not None:
        if view:
            raise BindError(
                "a WINDOW query has no circuit: its continuous SELECT "
                "emits one row per closed window"
            )
        window = lower_window(query, output_basket)
        query.check_names()  # after the window's own limits
        return window
    query.check_names()
    if view:
        return compile_incremental(query, interpreter, output_basket)
    return MalContinuousPlan(
        generate_continuous(query), interpreter, output_basket
    )


def lower_window(
    query: ResolvedSelect, output_basket: str
) -> WindowAggregatePlan:
    """Lower ``SELECT [key,] aggs FROM [select * from B] as x [GROUP BY
    key] WINDOW n [SLIDE m]`` onto the window aggregate plan; its rows
    are ``window_id`` and then the select list, in order."""

    def fail(reason: str) -> SqlError:
        return SqlError(f"WINDOW queries: {reason}")

    if query.where or query.group_filter is not None or query.order \
            or query.limit or query.distinct:
        raise fail("only aggregates, one stream, and GROUP BY are supported")
    source = query.from_items[0] if len(query.from_items) == 1 else None
    if not isinstance(source, BasketFrom):
        raise fail("FROM must be a single basket expression")
    if not source.plain:
        raise fail("the basket expression must be [select * from <basket>]")
    try:
        shape = stream_aggregate(query)
    except ShapeError as exc:
        raise fail(str(exc)) from None
    if len(shape.keys) > 1:
        raise fail("GROUP BY must name a single stream column")
    basket = source.basket
    # a count(*)-only query never reads its values
    value = shape.value_column or TIME_COLUMN
    value_atom = basket.schema.atom(value)
    if value_atom is AtomType.STR:
        # the pane table's partials are numeric; a string has none
        raise BindError(
            f"WINDOW queries: aggregates over VARCHAR column {value!r} "
            "are not supported"
        )
    key = shape.keys[0] if shape.keys else None
    plan = WindowAggregatePlan(
        basket.name,
        value,
        list(shape.aggregates),
        query.window,
        output_basket,
        group_column=key,
        group_atom=basket.schema.atom(key) if key else AtomType.STR,
        value_atom=value_atom,
    )
    # the plan's own order is (window_id, key, aggregates)
    first_agg = 1 + len(shape.keys)
    plan.layout = [
        (name, 1 + i if role == "key" else first_agg + i)
        for name, (role, i) in zip(query.names, shape.layout)
    ]
    return plan
