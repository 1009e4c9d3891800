"""One lowering for continuous SQL: a parsed SELECT → the plan a factory runs.

:func:`lower_continuous` is the one entry of every continuous SELECT,
for registration (``DataCell._submit_select``) and ``DataCell.explain``:
a WINDOW query becomes the window aggregate plan in either mode (§3.1:
windows by plan choice), an incremental aggregate or equi-join a Z-set
circuit, and everything else — a linear incremental query too — the
compiled MAL program.  The window and circuit lowerings read the query
through one resolver, :func:`repro.sql.shape.resolve_shape`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..errors import DataCellError, SqlError
from ..incremental.compile import IncrementalUnsupported, compile_incremental
from ..kernel.catalog import Catalog
from ..kernel.interpreter import MalInterpreter
from ..kernel.types import AtomType
from ..sql.ast_nodes import BasketExpr, Select, Star, TableSource
from ..sql.compiler import MalContinuousPlan, compile_continuous
from ..sql.shape import ShapeError, resolve_shape
from .basket import TIME_COLUMN
from .factory import ContinuousPlan
from .windows import WindowAggregatePlan

__all__ = ["Lowering", "lower_continuous", "lower_window"]


class Lowering(NamedTuple):
    """A lowered continuous query: its plan, the route that produced it
    (``"reeval"`` or ``"incremental"``) and, when an incremental query
    fell back to re-eval, the reason."""

    plan: ContinuousPlan
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
    if stmt.window is not None:
        return Lowering(lower_window(catalog, stmt, output_basket), "reeval")
    fallback = None
    if execution == "incremental":
        try:
            circuit = compile_incremental(
                catalog, stmt, interpreter, output_basket
            )
        except IncrementalUnsupported as exc:
            fallback, execution = str(exc), "reeval"
        else:
            if circuit is not None:
                return Lowering(circuit, execution)
    compiled = compile_continuous(catalog, stmt)
    plan = MalContinuousPlan(compiled, interpreter, output_basket)
    return Lowering(plan, execution, fallback)


def lower_window(
    catalog: Catalog, stmt: Select, output_basket: str
) -> WindowAggregatePlan:
    """Lower ``SELECT aggs FROM [select * from B] as x [GROUP BY g]
    WINDOW n [SLIDE m]`` onto the window aggregate plan."""

    def fail(reason: str) -> SqlError:
        return SqlError(f"WINDOW queries: {reason}")

    if stmt.where or stmt.having or stmt.order_by or stmt.limit \
            or stmt.distinct:
        raise fail("only aggregates, one stream, and GROUP BY are supported")
    source = stmt.sources[0] if len(stmt.sources) == 1 else None
    if not isinstance(source, BasketExpr):
        raise fail("FROM must be a single basket expression")
    inner = source.select
    if (
        [type(s) for s in inner.sources] != [TableSource]
        or [type(i.expr) for i in inner.items] != [Star]
        or inner != Select(inner.items, inner.sources)  # no other clause
    ):
        raise fail("the basket expression must be [select * from <basket>]")
    try:
        shape = resolve_shape(stmt)
    except ShapeError as exc:
        raise fail(str(exc)) from None
    if len(shape.keys) > 1:
        raise fail("GROUP BY must name a single stream column")
    basket = catalog.get(inner.sources[0].name)
    if not basket.is_basket:
        raise DataCellError(f"{basket.name!r} is a table, not a basket")
    key = shape.keys[0] if shape.keys else None
    value_column = shape.value_column
    if value_column is None:
        # count(*)-only query: any numeric column works (values are
        # never read); fall back to the implicit timestamp
        numeric = [c.name for c in basket.user_columns if c.atom.is_numeric]
        value_column = numeric[0] if numeric else TIME_COLUMN
    return WindowAggregatePlan(
        basket.name,
        value_column,
        shape.aggregates,
        shape.window,
        output_basket,
        group_column=key,
        group_atom=basket.schema.atom(key) if key else AtomType.STR,
    )
