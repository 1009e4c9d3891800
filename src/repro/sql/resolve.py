"""Resolve a SELECT once, for every code generator.

The SQL front end runs resolution, then planning, then code generation.
:func:`resolve` is the resolution phase and the only code that reads a
statement's clauses.  It classifies each FROM item, binds column
references to the items that define them (a table or basket column
carries its base atom), splits WHERE and ON into equi-join pairs and the
remaining conjuncts (each with the FROM items it reads), collects the
aggregates once and names every output column once.  Three code
generators read the :class:`ResolvedSelect` it returns: the MAL compiler
(:mod:`repro.sql.compiler`), the window lowering
(:func:`repro.core.lowering.lower_window`) and the Z-set circuit
(:mod:`repro.incremental.compile`).  Expression trees stay AST nodes;
the MAL compiler types them by the opcode table's atom rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, NamedTuple
from typing import Optional, Sequence, Tuple, Union

from ..errors import BindError, SqlError
from ..kernel.catalog import Catalog, Table
from ..kernel.types import AtomType
from .ast_nodes import (
    BasketExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    JoinSource,
    OrderItem,
    Select,
    SelectItem,
    Source,
    Star,
    SubquerySource,
    TableSource,
)
from .binder import lookup

__all__ = ["ResolvedSelect", "resolve", "stream_aggregate", "ShapeError"]

TIME_COLUMN = "dc_time"
AGGREGATES = frozenset({"sum", "count", "avg", "min", "max"})


class Column(NamedTuple):
    """A column a FROM item exposes, under the item's alias: its base
    atom (None when computed), and whether ``*`` skips it (the implicit
    timestamp)."""

    qualifier: str
    name: str
    atom: Optional[AtomType] = None
    hidden: bool = False


class Item(NamedTuple):
    """One output column.  ``*`` expands to one item per column: a
    reference keeping the column's qualifier."""

    expr: Expr
    name: str
    qualifier: Optional[str] = None
    star: bool = False


#: an equi-join conjunct ``l = r``: the reference into the left side,
#: then the one into the right side
EquiPair = Tuple[ColumnRef, ColumnRef]


@dataclass(frozen=True)
class TableFrom:
    alias: str
    table: Table
    columns: Tuple[Column, ...]


@dataclass(frozen=True)
class BasketFrom:
    """``[select ... from B [where ...] [limit n]] as alias``.

    ``base`` is the basket's columns under the inner alias, the scope of
    the inner ``where``; ``items`` is the inner select list and
    ``columns`` what the outer query sees.  ``plain`` marks
    ``[select * from B]``, which reads the basket and nothing else.
    """

    alias: str
    basket: Table
    base: Tuple[Column, ...]
    where: Tuple[Expr, ...]
    limit: Optional[int]
    items: Tuple[Item, ...]
    columns: Tuple[Column, ...]
    plain: bool


@dataclass(frozen=True)
class SubqueryFrom:
    alias: str
    select: ResolvedSelect
    columns: Tuple[Column, ...]


@dataclass(frozen=True)
class JoinFrom:
    """``left JOIN right ON ...``: the equi pair it joins on (None: a
    cross product) and the ON conjuncts that filter its result."""

    left: From
    right: From
    kind: str
    equi: Optional[EquiPair]
    on: Tuple[Expr, ...]
    columns: Tuple[Column, ...]


From = Union[TableFrom, BasketFrom, SubqueryFrom, JoinFrom]


class Conjunct(NamedTuple):
    """A WHERE conjunct and the (top-level) FROM items it reads: one for
    a per-source filter, none for a constant."""

    expr: Expr
    reads: FrozenSet[int]


@dataclass(frozen=True)
class ResolvedSelect:
    """A SELECT with every clause read.

    ``joins[i]`` is the WHERE equi pair joining ``from_items[i + 1]`` to
    the items before it (None: a cross product); ``where`` is the rest
    of WHERE, in order.  ``group_filter`` is HAVING, with or without
    group keys; ``aggregates`` holds each aggregate call of the select
    list and HAVING once, by structural key, and ``aggregating`` says
    the query folds its rows into groups (one group without keys).
    ``window`` is the outer ``WINDOW`` clause's
    :class:`~repro.core.windows.WindowSpec`.
    """

    from_items: Tuple[From, ...]
    joins: Tuple[Optional[EquiPair], ...]
    where: Tuple[Conjunct, ...]
    items: Tuple[Item, ...]
    keys: Tuple[Expr, ...] = ()
    group_filter: Optional[Expr] = None
    aggregates: Tuple[FuncCall, ...] = ()
    aggregating: bool = False
    distinct: bool = False
    order: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    window: Any = None

    @property
    def names(self) -> List[str]:
        return [item.name for item in self.items]

    def leaves(self) -> Iterator[From]:
        """The FROM items, with explicit joins opened up."""
        stack = list(reversed(self.from_items))
        while stack:
            source = stack.pop()
            if isinstance(source, JoinFrom):
                stack += [source.right, source.left]
            else:
                yield source

    def check_names(self) -> None:
        """Reject an output name an item repeats, asking for an alias.

        A continuous query's output columns become its output basket's,
        so they must be named apart.  Columns a ``*`` expands to are left
        to the basket, as no alias can rename them."""
        seen: Dict[str, Item] = {}
        for item in self.items:
            first = seen.setdefault(item.name, item)
            if first is not item and not (first.star and item.star):
                raise BindError(
                    f"duplicate output column {item.name!r}: give the "
                    "item an alias (AS ...)"
                )

    @classmethod
    def lift(
        cls,
        source: From,
        items: Sequence[Tuple[Expr, str]],
        where: Sequence[Expr],
    ) -> ResolvedSelect:
        """``items`` (expression, name) over the one FROM item ``source``
        under the conjuncts ``where``: an incremental circuit's stage."""
        return cls(
            (source,),
            (),
            tuple(Conjunct(conj, frozenset({0})) for conj in where),
            tuple(Item(expr, name) for expr, name in items),
        )


def resolve(catalog: Catalog, stmt: Select) -> ResolvedSelect:
    """Resolve ``stmt`` against ``catalog``; raises :class:`BindError`
    when a reference does not bind or a clause is malformed."""
    if not stmt.sources:
        raise BindError("FROM clause is empty")
    sources = tuple(_source(catalog, s) for s in stmt.sources)
    # each comma-joined item takes one WHERE conjunct ``a.x = b.y``
    # linking it to the items before it as its equi-join key
    conjuncts = split_and(stmt.where)
    joins: List[Optional[EquiPair]] = []
    scope = list(sources[0].columns)
    for other in sources[1:]:
        pair, conjuncts = _equi_pair(conjuncts, scope, other.columns)
        joins.append(pair)
        scope += other.columns
    owner = {id(c): i for i, s in enumerate(sources) for c in s.columns}
    where = tuple(
        Conjunct(conj, frozenset(owner[id(c)] for c in _bind(conj, scope)))
        for conj in conjuncts
    )
    for key in stmt.group_by:
        _bind(key, scope)
    found = aggregates_in([i.expr for i in stmt.items] + [stmt.having])
    aggregates: Dict[str, FuncCall] = {}
    for agg in found:
        if agg.distinct:
            raise BindError("DISTINCT aggregates are not supported")
        if not agg.star and len(agg.args) != 1:
            raise BindError(f"{agg.name} takes exactly one argument")
        for arg in agg.args:
            _bind(arg, scope)
        aggregates.setdefault(expr_key(agg), agg)
    aggregating = bool(stmt.group_by or found or stmt.having is not None)
    if aggregating and any(isinstance(i.expr, Star) for i in stmt.items):
        raise BindError(
            "* cannot appear with GROUP BY"
            if stmt.group_by
            else "without GROUP BY the select list may contain only "
            "aggregates"
        )
    window: Any = None
    if stmt.window is not None:
        # lazy: the core package imports the SQL front end
        from ..core.windows import WindowMode, WindowSpec

        mode = WindowMode.TIME if stmt.window_time else WindowMode.COUNT
        window = WindowSpec(mode, stmt.window, stmt.window_slide)
    # an aggregating query's items (and HAVING) are matched against its
    # group keys and aggregates by structural key, not bound
    return ResolvedSelect(
        sources,
        tuple(joins),
        where,
        _items(stmt.items, scope, bind=not aggregating, window=window),
        tuple(stmt.group_by),
        stmt.having,
        tuple(aggregates.values()),
        aggregating,
        stmt.distinct,
        tuple(stmt.order_by),
        stmt.limit,
        window,
    )


def _items(
    items: Sequence[SelectItem],
    scope: Sequence[Column],
    bind: bool = True,
    window: Any = None,
) -> Tuple[Item, ...]:
    """Name each select item once; ``*`` expands over ``scope``.  In a
    WINDOW query an unnamed ``count(*)`` is ``count_star``, the window
    plan's name for it."""
    out: List[Item] = []
    for item in items:
        expr = item.expr
        if isinstance(expr, Star):
            qualifier = expr.table.lower() if expr.table else None
            columns = [
                c
                for c in scope
                if not c.hidden and qualifier in (None, c.qualifier)
            ]
            if expr.table and not columns:
                raise BindError(f"unknown source alias {expr.table!r} in *")
            out += [
                Item(ColumnRef(c.name, c.qualifier), c.name, c.qualifier,
                     star=True)
                for c in columns
            ]
            continue
        if bind:
            _bind(expr, scope)
        if item.alias:
            name = item.alias
        elif window is not None and isinstance(expr, FuncCall) and expr.star:
            name = "count_star"
        elif isinstance(expr, (ColumnRef, FuncCall)):
            name = expr.name
        else:
            name = f"col{len(out)}"
        out.append(Item(expr, name.lower()))
    if not out:
        raise BindError("select list is empty")
    return tuple(out)


# ----------------------------------------------------------------------
# FROM items
# ----------------------------------------------------------------------
def _source(catalog: Catalog, source: Source) -> From:
    if isinstance(source, TableSource):
        table = catalog.get(source.name)
        alias = source.binding_name
        return TableFrom(alias, table, _columns(alias, table))
    if isinstance(source, BasketExpr):
        return _basket(catalog, source)
    if isinstance(source, SubquerySource):
        query = resolve(catalog, source.select)
        alias = source.binding_name
        columns = tuple(Column(alias, name) for name in query.names)
        return SubqueryFrom(alias, query, columns)
    if isinstance(source, JoinSource):
        left = _source(catalog, source.left)
        right = _source(catalog, source.right)
        columns = left.columns + right.columns
        equi: Optional[EquiPair] = None
        on: List[Expr] = []
        if source.kind != "cross" and source.condition is not None:
            conjuncts = split_and(source.condition)
            equi, on = _equi_pair(conjuncts, left.columns, right.columns)
            if equi is not None and source.kind == "left":
                raise BindError(
                    "LEFT JOIN projection of unmatched rows is not "
                    "supported yet; use INNER JOIN"
                )
            for conj in on:
                _bind(conj, columns)
        return JoinFrom(left, right, source.kind, equi, tuple(on), columns)
    raise BindError(f"unsupported FROM item {type(source).__name__}")


def _basket(catalog: Catalog, source: BasketExpr) -> BasketFrom:
    inner = source.select
    if len(inner.sources) != 1 or not isinstance(
        inner.sources[0], TableSource
    ):
        raise BindError("a basket expression must read exactly one basket")
    table_src = inner.sources[0]
    basket = catalog.get(table_src.name)
    if not basket.is_basket:
        raise BindError(
            f"{table_src.name!r} is not a basket; basket expressions "
            "apply to baskets/streams only"
        )
    if inner.group_by or inner.having or inner.order_by or inner.window:
        raise BindError(
            "basket expressions support select-project-filter (and "
            "LIMIT) only"
        )
    base = _columns(table_src.binding_name, basket)
    where = split_and(inner.where)
    for conj in where:
        _bind(conj, base)
    # the basket's tuples stay reachable through the outer alias
    alias = source.binding_name
    exposed = [Column(alias, c.name, c.atom, c.hidden) for c in base]
    items = _items(inner.items, exposed)
    atoms = {c.name: c.atom for c in base}
    columns = [
        Column(alias, i.name, atoms[i.expr.name.lower()])
        if isinstance(i.expr, ColumnRef)
        else Column(alias, i.name)
        for i in items
    ]
    # the implicit timestamp too, even though * skips it
    names = {i.name for i in items}
    columns += [c for c in exposed if c.hidden and c.name not in names]
    plain = (
        [type(i.expr) for i in inner.items] == [Star]
        and inner.where is None
        and inner.limit is None
        and not inner.distinct
    )
    return BasketFrom(
        alias, basket, base, tuple(where), inner.limit, items,
        tuple(columns), plain,
    )


def _columns(alias: str, table: Table) -> Tuple[Column, ...]:
    return tuple(
        Column(alias, c.name.lower(), c.atom, c.name.lower() == TIME_COLUMN)
        for c in table.schema
    )


def _bind(expr: Expr, scope: Sequence[Column]) -> List[Column]:
    """The columns of ``scope`` the references in ``expr`` name."""
    if isinstance(expr, ColumnRef):  # the common case, without a walk
        return [lookup(scope, expr)]
    return [lookup(scope, ref) for ref in column_refs(expr)]


def _equi_pair(
    conjuncts: List[Expr], left: Sequence[Column], right: Sequence[Column]
) -> Tuple[Optional[EquiPair], List[Expr]]:
    """The first ``l.col = r.col`` conjunct joining ``left`` to ``right``,
    and the other conjuncts.

    A reference that binds on both sides is ambiguous: its conjunct
    stays with the others, whose binding reports it.
    """
    both = list(left) + list(right)

    def side(ref: ColumnRef) -> Optional[bool]:
        try:
            column = lookup(both, ref)
        except BindError:
            return None
        return any(c is column for c in left)

    for i, conj in enumerate(conjuncts):
        if not (
            isinstance(conj, BinaryOp)
            and conj.op == "=="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
        ):
            continue
        a, b = side(conj.left), side(conj.right)
        if a is None or b is None or a == b:
            continue
        pair = (conj.left, conj.right) if a else (conj.right, conj.left)
        return pair, conjuncts[:i] + conjuncts[i + 1:]
    return None, conjuncts


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
def split_and(expr: Optional[Expr]) -> List[Expr]:
    """The conjuncts of ``expr`` (none for an absent clause)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_and(expr.left) + split_and(expr.right)
    return [expr]


def _walk(value: Any, stop: Any = None) -> List[Expr]:
    """Every expression node under ``value``, depth first in field
    order; does not descend below a node ``stop`` accepts."""
    out: List[Expr] = []
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, Expr):
            out.append(node)
            if stop is not None and stop(node):
                continue
            node = list(vars(node).values())
        elif not isinstance(node, (list, tuple)):  # a name, a flag, None
            continue
        for child in reversed(node):  # fields; args, IN items, CASE arms
            if isinstance(child, (Expr, list, tuple)):
                stack.append(child)
    return out


def is_aggregate(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.name in AGGREGATES


def aggregates_in(expr: Any) -> List[FuncCall]:
    """The aggregate calls in ``expr``, an expression or a list of them
    (not those nested in one)."""
    return [
        e
        for e in _walk(expr, is_aggregate)
        if isinstance(e, FuncCall) and e.name in AGGREGATES
    ]


def column_refs(expr: Expr) -> List[ColumnRef]:
    return [e for e in _walk(expr) if isinstance(e, ColumnRef)]


def expr_key(value: Any) -> str:
    """A canonical structural key for expression deduplication; column
    references match by name, whatever their qualifier."""
    if isinstance(value, ColumnRef):
        return f"col:{value.name.lower()}"
    if isinstance(value, Expr):
        value = (type(value).__name__, *vars(value).values())
    if isinstance(value, (list, tuple)):
        return "(" + ",".join([expr_key(v) for v in value]) + ")"
    return repr(value)


# ----------------------------------------------------------------------
# the stream aggregate: what the window plan and the circuit fold
# ----------------------------------------------------------------------
class ShapeError(SqlError):
    """The query is not a stream aggregate; the message says why."""


class StreamAggregate(NamedTuple):
    """Group keys that are plain columns and, per select item, a key or
    one aggregate over the one value column (None: only ``count(*)``).
    ``aggregates`` names each aggregate item's function (``count_star``
    for ``count(*)``); ``layout[i]`` is item ``i``'s ``("key", k)`` or
    ``("agg", j)``."""

    keys: Tuple[str, ...]
    aggregates: Tuple[str, ...]
    value_column: Optional[str]
    layout: Tuple[Tuple[str, int], ...]


def stream_aggregate(query: ResolvedSelect) -> StreamAggregate:
    """The stream aggregate ``query`` computes; raises :class:`ShapeError`
    when it is not one."""
    keys: List[str] = []
    for key in query.keys:
        if not isinstance(key, ColumnRef):
            raise ShapeError("GROUP BY must name stream columns directly")
        keys.append(key.name.lower())
    aggregates: List[str] = []
    layout: List[Tuple[str, int]] = []
    value: Optional[str] = None
    for item in query.items:
        expr = item.expr
        if isinstance(expr, ColumnRef):
            column = expr.name.lower()
            if column not in keys:
                raise ShapeError(
                    f"column {column!r} must appear in GROUP BY or inside "
                    "an aggregate"
                )
            layout.append(("key", keys.index(column)))
            continue
        if not isinstance(expr, FuncCall) or expr.name not in AGGREGATES:
            raise ShapeError(
                "select items must be group keys or aggregate calls"
            )
        name = "count_star"
        if not expr.star:
            if not isinstance(expr.args[0], ColumnRef):
                raise ShapeError(
                    "aggregate arguments must be plain stream columns"
                )
            column = expr.args[0].name.lower()
            if value not in (None, column):
                raise ShapeError(
                    "all aggregates must target the same stream column"
                )
            value, name = column, expr.name
        layout.append(("agg", len(aggregates)))
        aggregates.append(name)
    if not aggregates:
        raise ShapeError("no aggregates in the select list")
    return StreamAggregate(
        tuple(keys), tuple(aggregates), value, tuple(layout)
    )
