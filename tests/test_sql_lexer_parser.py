"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.ast_nodes import (
    BasketExpr,
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    CreateBasket,
    CreateTable,
    Drop,
    FuncCall,
    InList,
    Insert,
    IsNull,
    JoinSource,
    Star,
    SubquerySource,
    TableSource,
    UnaryOp,
    contains_basket_expr,
)
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse_select, parse_statement


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt FROM where")
        assert [t.type for t in tokens[:-1]] == [TokenType.KEYWORD] * 3

    def test_identifiers(self):
        tokens = tokenize("my_table col2")
        assert [t.value for t in tokens[:-1]] == ["my_table", "col2"]

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e3 2.5e-2")
        values = [t.value for t in tokens[:-1]]
        assert values == [42, 3.14, 1000.0, 0.025]
        assert isinstance(values[0], int)

    def test_strings_with_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_line_comments(self):
        tokens = tokenize("select -- comment\n1")
        assert len(tokens) == 3  # select, 1, EOF

    def test_block_comments(self):
        tokens = tokenize("select /* multi\nline */ 1")
        assert len(tokens) == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select /* oops")

    def test_operators_longest_match(self):
        tokens = tokenize("<= >= <> != =")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "<>", "!=", "="]

    def test_brackets_for_basket_expr(self):
        tokens = tokenize("[ ]")
        assert [t.value for t in tokens[:-1]] == ["[", "]"]

    def test_position_tracking(self):
        tokens = tokenize("select\n  foo")
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")

    def test_quoted_identifier(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "weird name"


class TestParserSelect:
    def test_minimal(self):
        s = parse_select("select a from t")
        assert isinstance(s.items[0].expr, ColumnRef)
        assert isinstance(s.sources[0], TableSource)

    def test_star(self):
        s = parse_select("select * from t")
        assert isinstance(s.items[0].expr, Star)

    def test_qualified_star(self):
        s = parse_select("select t.* from t")
        assert s.items[0].expr.table == "t"

    def test_aliases(self):
        s = parse_select("select a as x, b y from t z")
        assert s.items[0].alias == "x"
        assert s.items[1].alias == "y"
        assert s.sources[0].alias == "z"

    def test_where_precedence(self):
        s = parse_select("select a from t where a > 1 and b < 2 or c = 3")
        # or binds loosest
        assert isinstance(s.where, BinaryOp) and s.where.op == "or"
        assert s.where.left.op == "and"

    def test_arithmetic_precedence(self):
        s = parse_select("select a + b * c from t")
        expr = s.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_unary_minus(self):
        s = parse_select("select -a from t where b > -5")
        assert isinstance(s.items[0].expr, UnaryOp)

    def test_between(self):
        s = parse_select("select a from t where a between 1 and 10")
        assert isinstance(s.where, Between)

    def test_not_between(self):
        s = parse_select("select a from t where a not between 1 and 10")
        assert s.where.negated

    def test_in_list(self):
        s = parse_select("select a from t where a in (1, 2, 3)")
        assert isinstance(s.where, InList)
        assert len(s.where.items) == 3

    def test_is_null(self):
        s = parse_select("select a from t where a is null")
        assert isinstance(s.where, IsNull) and not s.where.negated
        s = parse_select("select a from t where a is not null")
        assert s.where.negated

    def test_group_by_having(self):
        s = parse_select(
            "select a, sum(b) from t group by a having sum(b) > 10"
        )
        assert len(s.group_by) == 1
        assert s.having is not None

    def test_count_star(self):
        s = parse_select("select count(*) from t")
        assert s.items[0].expr.star

    def test_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("select sum(*) from t")

    def test_order_limit(self):
        s = parse_select("select a from t order by a desc, b limit 5")
        assert s.order_by[0].descending
        assert not s.order_by[1].descending
        assert s.limit == 5

    def test_limit_must_be_integer(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("select a from t limit 2.5")

    def test_distinct(self):
        assert parse_select("select distinct a from t").distinct

    def test_case_when(self):
        s = parse_select(
            "select case when a > 0 then 'p' when a < 0 then 'n' "
            "else 'z' end from t"
        )
        expr = s.items[0].expr
        assert isinstance(expr, CaseWhen)
        assert len(expr.whens) == 2
        assert expr.otherwise is not None

    def test_cast(self):
        s = parse_select("select cast(a as int) from t")
        assert isinstance(s.items[0].expr, FuncCall)
        assert s.items[0].expr.name == "cast_int"

    def test_cast_to_varchar_with_length(self):
        s = parse_select("select cast(a as varchar(8)) from t")
        assert s.items[0].expr.name == "cast_varchar"

    def test_literals(self):
        s = parse_select("select 1, 2.5, 'x', null, true, false from t")
        values = [i.expr.value for i in s.items]
        assert values == [1, 2.5, "x", None, True, False]


class TestParserSources:
    def test_basket_expr_requires_alias(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("select * from [select * from r]")

    def test_basket_expr(self):
        s = parse_select("select * from [select * from r] as b")
        src = s.sources[0]
        assert isinstance(src, BasketExpr)
        assert src.alias == "b"
        assert contains_basket_expr(s)

    def test_subquery(self):
        s = parse_select("select * from (select a from t) as sub")
        assert isinstance(s.sources[0], SubquerySource)

    def test_join_on(self):
        s = parse_select("select * from a join b on a.x = b.y")
        src = s.sources[0]
        assert isinstance(src, JoinSource)
        assert src.kind == "inner"

    def test_inner_join(self):
        s = parse_select("select * from a inner join b on a.x = b.y")
        assert s.sources[0].kind == "inner"

    def test_cross_join(self):
        s = parse_select("select * from a cross join b")
        assert s.sources[0].kind == "cross"

    def test_comma_sources(self):
        s = parse_select("select * from a, b, c")
        assert len(s.sources) == 3

    def test_chained_joins(self):
        s = parse_select(
            "select * from a join b on a.x = b.x join c on b.y = c.y"
        )
        outer = s.sources[0]
        assert isinstance(outer.left, JoinSource)

    def test_no_basket_expr_is_one_time(self):
        s = parse_select("select * from t")
        assert not contains_basket_expr(s)

    def test_nested_basket_expr_in_subquery_detected(self):
        s = parse_select(
            "select * from (select * from [select * from r] as b) as s"
        )
        assert contains_basket_expr(s)


class TestParserStatements:
    def test_create_table(self):
        stmt = parse_statement("create table t (a int, b double)")
        assert isinstance(stmt, CreateTable)
        assert stmt.columns == [("a", "int"), ("b", "double")]

    def test_create_basket(self):
        stmt = parse_statement("create basket b (a int)")
        assert isinstance(stmt, CreateBasket)

    def test_create_stream_synonym(self):
        stmt = parse_statement("create stream s (a int)")
        assert isinstance(stmt, CreateBasket)

    def test_varchar_length_ignored(self):
        stmt = parse_statement("create table t (s varchar(42))")
        assert stmt.columns == [("s", "varchar")]

    def test_insert(self):
        stmt = parse_statement("insert into t values (1, 'a'), (2, 'b')")
        assert isinstance(stmt, Insert)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse_statement("insert into t (b, a) values (1, 2)")
        assert stmt.columns == ["b", "a"]

    def test_drop(self):
        stmt = parse_statement("drop table t")
        assert isinstance(stmt, Drop) and stmt.name == "t"
        assert isinstance(parse_statement("drop basket b"), Drop)

    def test_trailing_semicolon_ok(self):
        parse_statement("select a from t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("select a from t garbage here")

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("update t set a = 1")

    def test_paper_q1_parses(self):
        """Query q1 verbatim from the paper (§2.6)."""
        s = parse_select(
            "select * from [select * from R] as S where S.a > 10"
        )
        assert contains_basket_expr(s)

    def test_paper_q2_parses(self):
        """Query q2 verbatim from the paper (§2.6)."""
        s = parse_select(
            "select * from [select * from R where R.b < 20] as S "
            "where S.a > 10"
        )
        inner = s.sources[0].select
        assert inner.where is not None
