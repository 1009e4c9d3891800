"""Tests for scalar functions, LIKE, the optimizer, and LIMIT windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock
from repro.errors import BindError, TypeMismatchError
from repro.kernel.bat import bat_from_values
from repro.kernel.mathops import math_unary
from repro.kernel.strings import (
    like_pattern_to_regex,
    like_select,
    str_length,
    str_lower,
    str_substring,
    str_trim,
    str_upper,
)
from repro.kernel.types import AtomType
from repro.sql.compiler import compile_select
from repro.sql.optimizer import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    optimize,
)
from repro.sql.parser import parse_select


@pytest.fixture
def cell():
    c = DataCell(clock=LogicalClock())
    c.execute("create table t (s varchar(30), x double, n int)")
    c.execute(
        "insert into t values "
        "('hello world', 2.25, 4), ('Goodbye', -4.0, -3), "
        "(null, 9.0, null), ('  pad  ', 0.5, 16)"
    )
    return c


class TestStringPrimitives:
    def test_upper_lower(self):
        b = bat_from_values(AtomType.STR, ["aB", None])
        assert str_upper(b).python_list() == ["AB", None]
        assert str_lower(b).python_list() == ["ab", None]

    def test_length(self):
        b = bat_from_values(AtomType.STR, ["abc", "", None])
        assert str_length(b).python_list() == [3, 0, None]

    def test_trim(self):
        b = bat_from_values(AtomType.STR, ["  x ", None])
        assert str_trim(b).python_list() == ["x", None]

    def test_substring_one_based(self):
        b = bat_from_values(AtomType.STR, ["abcdef"])
        assert str_substring(b, 2, 3).python_list() == ["bcd"]
        assert str_substring(b, 3).python_list() == ["cdef"]

    def test_type_checked(self):
        b = bat_from_values(AtomType.INT, [1])
        with pytest.raises(TypeMismatchError):
            str_upper(b)


class TestLikePrimitives:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("h%", "hello", True),
            ("h%", "oh", False),
            ("%lo", "hello", True),
            ("h_llo", "hello", True),
            ("h_llo", "hllo", False),
            ("%", "", True),
            ("a\\%b", "a%b", True),
            ("a\\%b", "axb", False),
            ("100\\_%", "100_x", True),
        ],
    )
    def test_patterns(self, pattern, text, expected):
        assert bool(like_pattern_to_regex(pattern).match(text)) == expected

    def test_like_select_skips_nulls_both_ways(self):
        b = bat_from_values(AtomType.STR, ["abc", None, "xyz"])
        assert like_select(b, "a%").tolist() == [0]
        assert like_select(b, "a%", negated=True).tolist() == [2]


class TestMathPrimitives:
    def test_abs_preserves_type(self):
        b = bat_from_values(AtomType.LNG, [-5, None])
        out = math_unary("abs", b)
        assert out.atom is AtomType.LNG
        assert out.python_list() == [5, None]

    def test_sqrt_negative_is_null(self):
        b = bat_from_values(AtomType.DBL, [4.0, -1.0])
        assert math_unary("sqrt", b).python_list() == [2.0, None]

    def test_floor_ceil(self):
        b = bat_from_values(AtomType.DBL, [1.5, -1.5])
        assert math_unary("floor", b).python_list() == [1.0, -2.0]
        assert math_unary("ceil", b).python_list() == [2.0, -1.0]

    def test_round_digits(self):
        b = bat_from_values(AtomType.DBL, [2.345])
        assert math_unary("round", b, 2).python_list() == [2.35]

    def test_rejects_strings(self):
        b = bat_from_values(AtomType.STR, ["x"])
        with pytest.raises(TypeMismatchError):
            math_unary("abs", b)

    def test_unknown_function(self):
        with pytest.raises(TypeMismatchError):
            math_unary("log", bat_from_values(AtomType.INT, [1]))


class TestSqlFunctions:
    def test_string_functions(self, cell):
        rows = cell.query(
            "select upper(s), length(s) from t where s is not null "
            "order by length(s)"
        )
        assert rows[0] == ("GOODBYE", 7)

    def test_cast_to_varchar_with_length(self, cell):
        rows = cell.query(
            "select cast(n as varchar(8)), cast(x as varchar) from t "
            "order by x"
        )
        assert rows == [("-3", "-4.0"), ("16", "0.5"), ("4", "2.25"),
                        (None, "9.0")]

    def test_bigint_order_by_is_exact(self, cell):
        cell.execute("create table big (v bigint, tag int)")
        cell.execute(
            "insert into big values (-18014398509481985, 1), "
            "(-18014398509481986, 2), (null, 3), (-18014398509481987, 4), "
            "(-18014398509481986, 5)"
        )
        assert cell.query("select tag from big order by v") == [
            (3,), (4,), (2,), (5,), (1,)]
        assert cell.query("select tag from big order by v desc") == [
            (1,), (2,), (5,), (4,), (3,)]

    def test_trim_substring(self, cell):
        rows = cell.query(
            "select substring(trim(s), 1, 3) from t where x = 0.5"
        )
        assert rows == [("pad",)]

    def test_math_functions(self, cell):
        rows = cell.query(
            "select abs(n), sqrt(x) from t where n is not null order by n"
        )
        assert rows[0] == (3, None)  # sqrt(-4) -> NULL
        assert rows[1] == (4, 1.5)

    def test_round(self, cell):
        rows = cell.query("select round(x, 1) from t where x = 2.25")
        assert rows == [(2.3,)] or rows == [(2.2,)]  # banker's rounding

    def test_functions_in_where(self, cell):
        rows = cell.query("select s from t where length(s) = 11")
        assert rows == [("hello world",)]

    def test_like_in_where(self, cell):
        rows = cell.query("select s from t where s like 'h%world'")
        assert rows == [("hello world",)]

    def test_not_like(self, cell):
        rows = cell.query(
            "select s from t where s not like '%o%' and s is not null"
        )
        assert rows == [("  pad  ",)]

    def test_like_pattern_must_be_literal(self, cell):
        with pytest.raises(BindError):
            cell.query("select s from t where s like s")

    def test_like_on_numbers_rejected(self, cell):
        with pytest.raises(BindError):
            cell.query("select s from t where x like '2%'")

    def test_substring_bounds_checked(self, cell):
        with pytest.raises(BindError):
            cell.query("select substring(s, x) from t")

    def test_unknown_function_rejected(self, cell):
        with pytest.raises(BindError):
            cell.query("select frobnicate(s) from t")


class TestLimitWindows:
    def test_limit_window_consumes_in_batches(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket b (v int)")
        q = cell.submit_continuous(
            "select * from [select * from b limit 2] as s"
        )
        cell.insert("b", [(i,) for i in range(5)])
        cell.step()
        assert len(q.peek()) == 2, "one firing takes LIMIT tuples"
        cell.run_until_quiescent()
        assert [r[0] for r in q.fetch()] == [0, 1, 2, 3, 4]
        assert cell.basket("b").count == 0

    def test_limit_with_predicate_no_livelock(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket c (v int)")
        q = cell.submit_continuous(
            "select * from [select * from c where c.v > 10 limit 2] as s"
        )
        cell.insert("c", [(1,), (11,), (12,), (13,), (2,)])
        cell.run_until_quiescent()
        assert sorted(r[0] for r in q.fetch()) == [11, 12, 13]
        assert cell.basket("c").count == 2, "non-matching tuples retained"

    def test_inner_order_by_rejected(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket d (v int)")
        with pytest.raises(BindError):
            cell.submit_continuous(
                "select * from [select * from d order by v] as s"
            )


class TestOptimizer:
    def compiled(self, cell, sql):
        return compile_select(cell.catalog, parse_select(sql))

    def test_dce_removes_unused_binds(self, cell):
        compiled = self.compiled(cell, "select s from t")
        optimized, report = optimize(compiled.program)
        assert report.instructions_after < report.instructions_before
        # still runs and produces the same rows
        rows_opt = cell.interpreter.run(optimized).rows()
        rows_raw = cell.interpreter.run(compiled.program).rows()
        assert rows_opt == rows_raw

    def test_cse_merges_repeated_projections(self, cell):
        compiled = self.compiled(
            cell, "select x + x, x + x from t"
        )
        optimized, report = optimize(compiled.program)
        assert report.cse_merged >= 1
        assert cell.interpreter.run(optimized).rows() == (
            cell.interpreter.run(compiled.program).rows()
        )

    def test_protected_roots_survive(self, cell):
        from repro.kernel.mal import Const, Program, Var

        p = Program()
        a = p.emit("language", "pass", [Const(1)])
        p.emit("language", "pass", [Const(2)], results=["keepme"])
        p.output = a
        pruned, removed = eliminate_dead_code(p, protected=["keepme"])
        names = {r for ins in pruned.instructions for r in ins.results}
        assert "keepme" in names

    def test_cse_keeps_output_alias(self, cell):
        from repro.kernel.mal import Const, Program

        p = Program()
        p.emit("language", "pass", [Const(5)])
        b = p.emit("language", "pass", [Const(5)])
        p.output = b
        merged, count = eliminate_common_subexpressions(p)
        assert count == 1
        assert cell.interpreter.run(merged) == 5

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            max_size=30,
        )
    )
    def test_optimized_plans_equivalent(self, rows):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create table d (a int, b int)")
        for a, b in rows:
            cell.execute(f"insert into d values ({a}, {b})")
        sql = (
            "select a + b as apb, a + b as again, a from d "
            "where a > 0 and b > 0 order by a"
        )
        compiled = compile_select(cell.catalog, parse_select(sql))
        optimized, _ = optimize(compiled.program)
        assert (
            cell.interpreter.run(optimized).rows()
            == cell.interpreter.run(compiled.program).rows()
        )

    def test_continuous_plans_still_consume(self):
        """The optimizer must not break consumed-candidate plumbing."""
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket b (v int)")
        q = cell.submit_continuous(
            "select s.v from [select * from b where b.v > 5] as s"
        )
        cell.insert("b", [(3,), (7,)])
        cell.run_until_quiescent()
        assert q.fetch() == [(7,)]
        assert cell.basket("b").count == 1
