"""AST node definitions for the DataCell SQL dialect.

Plain dataclasses; the parser builds them, the resolver
(:mod:`repro.sql.resolve`) reads them once, and the code generators
lower what it resolved.  The DataCell extension is
:class:`BasketExpr` — a bracketed sub-query with consumption side effects;
a statement is *continuous* exactly when its FROM clause (transitively)
contains one (paper §2.6: "basket expressions may be part only of
continuous queries, which allows the system to distinguish between
continuous and normal/one-time queries").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = [
    "Expr",
    "Literal",
    "ColumnRef",
    "Star",
    "UnaryOp",
    "BinaryOp",
    "FuncCall",
    "Between",
    "InList",
    "IsNull",
    "Like",
    "CaseWhen",
    "SelectItem",
    "Source",
    "TableSource",
    "BasketExpr",
    "SubquerySource",
    "JoinSource",
    "OrderItem",
    "Select",
    "Statement",
    "UnionSelect",
    "CreateTable",
    "CreateBasket",
    "CreateView",
    "Insert",
    "Drop",
    "walk_sources",
    "contains_basket_expr",
]


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of all expression nodes."""


@dataclass
class Literal(Expr):
    value: Any  # int, float, str, bool, or None


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None  # qualifier (alias) if given

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass
class UnaryOp(Expr):
    op: str  # '-', 'not'
    operand: Expr


@dataclass
class BinaryOp(Expr):
    op: str  # arithmetic, comparison, 'and', 'or'
    left: Expr
    right: Expr


@dataclass
class FuncCall(Expr):
    name: str  # lower-cased
    args: List[Expr] = field(default_factory=list)
    star: bool = False  # count(*)
    distinct: bool = False


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    operand: Expr
    items: List[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    """SQL LIKE: ``operand [NOT] LIKE pattern`` (% and _ wildcards)."""

    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class CaseWhen(Expr):
    whens: List[Tuple[Expr, Expr]] = field(default_factory=list)
    otherwise: Optional[Expr] = None


# ----------------------------------------------------------------------
# sources (FROM items)
# ----------------------------------------------------------------------
class Source:
    """Base class of FROM-clause items."""

    alias: Optional[str]


@dataclass
class TableSource(Source):
    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass
class BasketExpr(Source):
    """The DataCell basket expression: ``[select ...] as alias``.

    Tuples referenced by the inner query are removed from their basket
    during evaluation but remain accessible through the alias.
    """

    select: "Select"
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        if not self.alias:
            raise ValueError("basket expressions must be aliased")
        return self.alias.lower()


@dataclass
class SubquerySource(Source):
    select: "Select"
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        if not self.alias:
            raise ValueError("subqueries must be aliased")
        return self.alias.lower()


@dataclass
class JoinSource(Source):
    """``left JOIN right ON condition`` (inner) or CROSS JOIN (no cond)."""

    left: Source
    right: Source
    condition: Optional[Expr] = None
    kind: str = "inner"  # 'inner' | 'cross' | 'left'
    alias: Optional[str] = None


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select:
    items: List[SelectItem]
    sources: List[Source] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    # DataCell extension (§3.1 made syntax): ``WINDOW n [SLIDE m]`` turns
    # a continuous aggregate into a count-based sliding-window query.
    window: Optional[float] = None
    window_slide: Optional[float] = None
    window_time: bool = False  # True: WINDOW n SECONDS (time-based)


class Statement:
    """Base class of top-level statements."""


@dataclass
class UnionSelect(Statement):
    """``select ... UNION [ALL] select ...`` (left-deep chains).

    ``left`` is a Select or another UnionSelect; ``right`` is a Select.
    """

    left: "Statement"
    right: Select
    all: bool = False


@dataclass
class CreateTable(Statement):
    name: str
    columns: List[Tuple[str, str]]  # (name, type name)


@dataclass
class CreateBasket(Statement):
    name: str
    columns: List[Tuple[str, str]]


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name AS <continuous select>``: the incrementally
    maintained running result of ``select``, delivered as weighted
    deltas (a plain continuous SELECT answers each firing instead)."""

    name: str
    select: Select


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[List[str]]
    rows: List[List[Expr]]


@dataclass
class Drop(Statement):
    name: str


def walk_sources(source: Source):
    """Yield every leaf source under (and including) ``source``."""
    if isinstance(source, JoinSource):
        yield from walk_sources(source.left)
        yield from walk_sources(source.right)
    else:
        yield source


def contains_basket_expr(select: Select) -> bool:
    """True when the query is continuous (has a basket expression)."""
    for source in select.sources:
        for leaf in walk_sources(source):
            if isinstance(leaf, BasketExpr):
                return True
            if isinstance(leaf, SubquerySource) and contains_basket_expr(
                leaf.select
            ):
                return True
    return False

