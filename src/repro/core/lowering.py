"""One lowering for continuous SQL: a parsed SELECT → the plan a factory runs.

:func:`lower_continuous` is the one entry of every continuous SELECT,
for registration (``DataCell._submit_select``) and ``DataCell.explain``.
It resolves the statement once (:func:`repro.sql.resolve.resolve`) and
hands the resolved query to one code generator: a WINDOW query becomes
the window aggregate plan in either mode (§3.1: windows by plan choice),
an incremental aggregate or equi-join a Z-set circuit, and everything
else — a linear incremental query too — the compiled MAL program.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..errors import BindError, SqlError
from ..incremental.compile import (
    CircuitContinuousPlan,
    IncrementalUnsupported,
    compile_incremental,
)
from ..kernel.catalog import Catalog
from ..kernel.interpreter import MalInterpreter
from ..kernel.types import AtomType
from ..sql.ast_nodes import Select
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

__all__ = ["Lowering", "lower_continuous", "lower_window"]


class Lowering(NamedTuple):
    """A lowered continuous query: its plan, the route that produced it
    (``"reeval"`` or ``"incremental"``) and, when an incremental query
    fell back to re-eval, the reason."""

    plan: Union[
        WindowAggregatePlan, CircuitContinuousPlan, MalContinuousPlan
    ]
    execution: str
    fallback: Optional[str] = None


def lower_continuous(
    catalog: Catalog,
    stmt: Select,
    interpreter: MalInterpreter,
    output_basket: str,
    execution: str,
) -> Lowering:
    """Lower ``stmt`` to the plan its shape and ``execution`` call for."""
    query = resolve(catalog, stmt)
    if query.window is not None:
        window = lower_window(query, output_basket)
        query.check_names()  # after the window's own limits
        return Lowering(window, "reeval")
    query.check_names()  # before a fallback is recorded
    fallback: Optional[str] = None
    if execution == "incremental":
        try:
            circuit = compile_incremental(query, interpreter, output_basket)
        except IncrementalUnsupported as exc:
            fallback, execution = str(exc), "reeval"
        else:
            if circuit is not None:
                return Lowering(circuit, execution)
    plan = MalContinuousPlan(
        generate_continuous(query), interpreter, output_basket
    )
    return Lowering(plan, execution, fallback)


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
    value = shape.value_column
    if value is not None and basket.schema.atom(value) is AtomType.STR:
        # the pane table's partials are float64; a string has none
        raise BindError(
            f"WINDOW queries: aggregates over VARCHAR column {value!r} "
            "are not supported"
        )
    key = shape.keys[0] if shape.keys else None
    plan = WindowAggregatePlan(
        basket.name,
        # a count(*)-only query never reads its values
        value or TIME_COLUMN,
        list(shape.aggregates),
        query.window,
        output_basket,
        group_column=key,
        group_atom=basket.schema.atom(key) if key else AtomType.STR,
    )
    # the plan's own order is (window_id, key, aggregates)
    first_agg = 1 + len(shape.keys)
    plan.layout = [
        (name, 1 + i if role == "key" else first_agg + i)
        for name, (role, i) in zip(query.names, shape.layout)
    ]
    return plan
