"""Recursive-descent parser for the DataCell SQL dialect.

Grammar (informal)::

    statement   := select | create | insert | drop
    create      := CREATE (TABLE | BASKET | STREAM) name '(' coldefs ')'
                 | CREATE VIEW name AS select
    insert      := INSERT INTO name ['(' names ')'] VALUES rowlist
    drop        := DROP (TABLE | BASKET | STREAM) name
    select      := SELECT [DISTINCT] items FROM sources [WHERE expr]
                   [GROUP BY exprs] [HAVING expr]
                   [ORDER BY order_items] [LIMIT n]
    source      := table [AS alias] | '[' select ']' AS alias
                 | '(' select ')' AS alias | source JOIN source ON expr
    expr        := or_expr with the usual precedence ladder; BETWEEN, IN,
                   IS [NOT] NULL, CASE WHEN, aggregate calls, ``*``

``CREATE STREAM`` is accepted as a synonym of ``CREATE BASKET``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlSyntaxError
from .ast_nodes import (
    BasketExpr,
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateBasket,
    CreateTable,
    CreateView,
    Drop,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    JoinSource,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Source,
    Star,
    Statement,
    SubquerySource,
    TableSource,
    UnaryOp,
    UnionSelect,
)
from .lexer import Token, TokenType, tokenize

__all__ = ["parse_statement", "parse_select", "Parser"]

AGGREGATE_FUNCTIONS = frozenset(
    ("sum", "count", "avg", "min", "max")
)


def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement (select, create, insert or drop)."""
    parser = Parser(sql)
    stmt = parser.statement()
    parser.expect_end()
    return stmt


def parse_select(sql: str) -> Select:
    """Parse a SELECT; raises if the text is a different statement."""
    stmt = parse_statement(sql)
    if not isinstance(stmt, Select):
        raise SqlSyntaxError("expected a SELECT statement")
    return stmt


class Parser:
    """Token-stream wrapper with the usual helpers."""

    def __init__(self, sql: str):
        self._tokens = tokenize(sql)
        self._pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message}, found {token.value!r}", token.line, token.column
        )

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, *names: str) -> Token:
        token = self._accept_keyword(*names)
        if token is None:
            raise self._error(f"expected {'/'.join(names).upper()}")
        return token

    def _accept_punct(self, value: str) -> Optional[Token]:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == value:
            return self._advance()
        return None

    def _expect_punct(self, value: str) -> Token:
        token = self._accept_punct(value)
        if token is None:
            raise self._error(f"expected {value!r}")
        return token

    def _accept_operator(self, *values: str) -> Optional[Token]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            return self._advance()
        return None

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return str(token.value)
        # many keywords double as identifiers in practice (e.g. a column
        # named "timestamp"); allow type-name keywords as identifiers
        if token.type is TokenType.KEYWORD and token.lowered in _SOFT_KEYWORDS:
            self._advance()
            return str(token.value)
        raise self._error("expected identifier")

    def _qualified_ident(self) -> str:
        """A possibly schema-qualified table name (``sys.metrics``).

        Dotted names are kept as one string — the catalog stores baskets
        under their full name, so the reserved ``sys.`` schema resolves
        like any user basket (no separate namespace object).
        """
        name = self._expect_ident()
        while self._accept_punct("."):
            name = f"{name}.{self._expect_ident()}"
        return name

    def expect_end(self) -> None:
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("select"):
            stmt: Statement = self.select()
            while self._accept_keyword("union"):
                all_rows = bool(self._accept_keyword("all"))
                right = self.select()
                stmt = UnionSelect(stmt, right, all_rows)
            return stmt
        if token.is_keyword("create"):
            return self._create()
        if token.is_keyword("insert"):
            return self._insert()
        if token.is_keyword("drop"):
            return self._drop()
        raise self._error("expected SELECT, CREATE, INSERT or DROP")

    def _create(self) -> Statement:
        self._expect_keyword("create")
        kind = self._expect_keyword("table", "basket", "stream", "view")
        name = self._qualified_ident()
        if kind.lowered == "view":
            self._expect_keyword("as")
            return CreateView(name, self.select())
        self._expect_punct("(")
        columns: List[Tuple[str, str]] = []
        while True:
            col = self._expect_ident()
            columns.append((col, self._type_name()))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if kind.lowered == "table":
            return CreateTable(name, columns)
        return CreateBasket(name, columns)

    def _insert(self) -> Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._qualified_ident()
        columns: Optional[List[str]] = None
        if self._accept_punct("("):
            columns = [self._expect_ident()]
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_keyword("values")
        rows: List[List[Expr]] = []
        while True:
            self._expect_punct("(")
            row = [self.expression()]
            while self._accept_punct(","):
                row.append(self.expression())
            self._expect_punct(")")
            rows.append(row)
            if not self._accept_punct(","):
                break
        return Insert(table, columns, rows)

    def _drop(self) -> Drop:
        self._expect_keyword("drop")
        self._expect_keyword("table", "basket", "stream")
        return Drop(self._qualified_ident())

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def select(self) -> Select:
        self._expect_keyword("select")
        distinct = bool(self._accept_keyword("distinct"))
        items = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        self._expect_keyword("from")
        sources = [self._source()]
        while self._accept_punct(","):
            sources.append(self._source())
        where = None
        if self._accept_keyword("where"):
            where = self.expression()
        group_by: List[Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.expression())
            while self._accept_punct(","):
                group_by.append(self.expression())
        having = None
        if self._accept_keyword("having"):
            having = self.expression()
        order_by: List[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())
        limit = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.type is not TokenType.NUMBER or not isinstance(
                token.value, int
            ):
                raise self._error("LIMIT expects an integer")
            self._advance()
            limit = int(token.value)
        window = window_slide = None
        window_time = False
        if self._accept_keyword("window"):
            window = self._expect_positive_number("WINDOW")
            window_time = self._accept_seconds()
            if self._accept_keyword("slide"):
                window_slide = self._expect_positive_number("SLIDE")
                if self._accept_seconds() and not window_time:
                    raise self._error(
                        "SLIDE unit must match the WINDOW unit"
                    )
        return Select(
            items=items,
            sources=sources,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            window=window,
            window_slide=window_slide,
            window_time=window_time,
        )

    def _expect_positive_number(self, context: str):
        token = self._peek()
        if (
            token.type is not TokenType.NUMBER
            or not isinstance(token.value, (int, float))
            or token.value <= 0
        ):
            raise self._error(f"{context} expects a positive number")
        self._advance()
        return token.value

    def _accept_seconds(self) -> bool:
        """Accept an optional SECONDS unit (time-based windows)."""
        token = self._peek()
        if token.type is TokenType.IDENT and token.lowered in (
            "seconds", "second", "secs", "sec", "s",
        ):
            self._advance()
            return True
        return False

    def _select_item(self) -> SelectItem:
        token = self._peek()
        # bare * or alias.*
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return SelectItem(Star())
        if (
            token.type is TokenType.IDENT
            and self._peek(1).type is TokenType.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            self._advance()
            self._advance()
            self._advance()
            return SelectItem(Star(table=str(token.value)))
        expr = self.expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        expr = self.expression()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, descending)

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _source(self) -> Source:
        source = self._source_primary()
        while True:
            if self._accept_keyword("cross"):
                self._expect_keyword("join")
                right = self._source_primary()
                source = JoinSource(source, right, None, kind="cross")
                continue
            kind = None
            if self._peek().is_keyword("join"):
                kind = "inner"
            elif self._peek().is_keyword("inner"):
                self._advance()
                kind = "inner"
            elif self._peek().is_keyword("left"):
                self._advance()
                self._accept_keyword("outer")
                kind = "left"
            if kind is None:
                return source
            self._expect_keyword("join")
            right = self._source_primary()
            self._expect_keyword("on")
            condition = self.expression()
            source = JoinSource(source, right, condition, kind=kind)

    def _source_primary(self) -> Source:
        # basket expression
        if self._accept_punct("["):
            inner = self.select()
            self._expect_punct("]")
            alias = self._source_alias(required=True)
            return BasketExpr(inner, alias)
        # parenthesized subquery
        if self._peek().type is TokenType.PUNCT and self._peek().value == "(":
            if self._peek(1).is_keyword("select"):
                self._advance()
                inner = self.select()
                self._expect_punct(")")
                alias = self._source_alias(required=True)
                return SubquerySource(inner, alias)
        name = self._qualified_ident()
        alias = self._source_alias(required=False)
        return TableSource(name, alias)

    def _source_alias(self, required: bool) -> Optional[str]:
        if self._accept_keyword("as"):
            return self._expect_ident()
        if self._peek().type is TokenType.IDENT:
            return self._expect_ident()
        if required:
            raise self._error("this source requires an alias (AS name)")
        return None

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            op = str(self._advance().value)
            op = {"=": "==", "<>": "!="}.get(op, op)
            return BinaryOp(op, left, self._additive())
        negated = False
        if token.is_keyword("not"):
            nxt = self._peek(1)
            if nxt.is_keyword("between", "in", "like"):
                self._advance()
                negated = True
                token = self._peek()
        if token.is_keyword("between"):
            self._advance()
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return Between(left, low, high, negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect_punct("(")
            items = [self.expression()]
            while self._accept_punct(","):
                items.append(self.expression())
            self._expect_punct(")")
            return InList(left, items, negated)
        if token.is_keyword("like"):
            self._advance()
            pattern = self._additive()
            return Like(left, pattern, negated)
        if token.is_keyword("is"):
            self._advance()
            neg = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return IsNull(left, neg)
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            token = self._accept_operator("+", "-")
            if token is None:
                return left
            left = BinaryOp(str(token.value), left, self._multiplicative())

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            token = self._accept_operator("*", "/", "%")
            if token is None:
                return left
            left = BinaryOp(str(token.value), left, self._unary())

    def _unary(self) -> Expr:
        if self._accept_operator("-"):
            return UnaryOp("-", self._unary())
        if self._accept_operator("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(str(token.value))
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.is_keyword("case"):
            return self._case()
        if token.is_keyword("cast"):
            return self._cast()
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            expr = self.expression()
            self._expect_punct(")")
            return expr
        # function call or column reference
        if token.type is TokenType.IDENT or (
            token.type is TokenType.KEYWORD and token.lowered in _SOFT_KEYWORDS
        ):
            name = self._expect_ident()
            if self._peek().type is TokenType.PUNCT and self._peek().value == "(":
                return self._func_call(name)
            if self._accept_punct("."):
                column = self._expect_ident()
                return ColumnRef(column, table=name)
            return ColumnRef(name)
        raise self._error("expected an expression")

    def _func_call(self, name: str) -> Expr:
        self._expect_punct("(")
        lowered = name.lower()
        if self._accept_operator("*"):
            self._expect_punct(")")
            if lowered != "count":
                raise self._error("only COUNT accepts *")
            return FuncCall(lowered, star=True)
        distinct = bool(self._accept_keyword("distinct"))
        args: List[Expr] = []
        if not (self._peek().type is TokenType.PUNCT and self._peek().value == ")"):
            args.append(self.expression())
            while self._accept_punct(","):
                args.append(self.expression())
        self._expect_punct(")")
        return FuncCall(lowered, args, distinct=distinct)

    def _case(self) -> Expr:
        self._expect_keyword("case")
        whens = []
        while self._accept_keyword("when"):
            cond = self.expression()
            self._expect_keyword("then")
            whens.append((cond, self.expression()))
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self.expression()
        self._expect_keyword("end")
        if not whens:
            raise self._error("CASE needs at least one WHEN")
        return CaseWhen(whens, otherwise)

    def _cast(self) -> Expr:
        self._expect_keyword("cast")
        self._expect_punct("(")
        expr = self.expression()
        self._expect_keyword("as")
        type_name = self._type_name()
        self._expect_punct(")")
        return FuncCall(f"cast_{type_name}", [expr])

    def _type_name(self) -> str:
        """A column or CAST type; ``varchar(n)``'s length is ignored."""
        type_token = self._advance()
        if type_token.type not in (TokenType.KEYWORD, TokenType.IDENT):
            raise self._error("expected a type name")
        type_name = str(type_token.value).lower()
        if type_name == "varchar" and self._accept_punct("("):
            self._advance()  # length, ignored
            self._expect_punct(")")
        return type_name


_SOFT_KEYWORDS = frozenset(
    ("timestamp", "text", "string", "double", "float", "real", "window",
     "slide", "every", "all", "values", "basket")
)
