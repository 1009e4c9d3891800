"""Tests for the SQL→MAL compiler: one-time query execution semantics.

Each test compiles SQL against a small catalog, runs the resulting MAL
program through the interpreter, and checks result rows against hand
computation (and, in the property tests, against a python reference).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindError, CatalogError
from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import MalInterpreter
from repro.kernel.types import AtomType
from repro.sql.compiler import compile_continuous, compile_select
from repro.sql.parser import parse_select


@pytest.fixture
def catalog():
    cat = Catalog()
    trades = cat.create_table(
        "trades",
        [("sym", AtomType.STR), ("price", AtomType.DBL),
         ("qty", AtomType.INT)],
    )
    trades.append_rows(
        [
            ("A", 10.0, 5),
            ("B", 20.0, 3),
            ("A", 12.0, 7),
            ("C", 9.0, 1),
            ("B", 21.0, None),
            ("C", None, 4),
        ]
    )
    syms = cat.create_table(
        "syms", [("sym", AtomType.STR), ("sector", AtomType.STR)]
    )
    syms.append_rows([("A", "tech"), ("B", "energy"), ("D", "metals")])
    return cat


def run(catalog, sql):
    compiled = compile_select(catalog, parse_select(sql))
    return MalInterpreter(catalog).run(compiled.program).rows()


class TestProjectionsAndFilters:
    def test_star(self, catalog):
        rows = run(catalog, "select * from syms")
        assert rows == [("A", "tech"), ("B", "energy"), ("D", "metals")]

    def test_column_order_follows_select_list(self, catalog):
        rows = run(catalog, "select sector, sym from syms limit 1")
        assert rows == [("tech", "A")]

    def test_where_simple(self, catalog):
        rows = run(catalog, "select sym from trades where price > 11")
        assert rows == [("B",), ("A",), ("B",)]

    def test_where_conjunction(self, catalog):
        rows = run(
            catalog,
            "select sym from trades where price > 9 and qty >= 5",
        )
        assert rows == [("A",), ("A",)]

    def test_where_disjunction(self, catalog):
        rows = run(
            catalog,
            "select sym, qty from trades where qty = 1 or qty = 3",
        )
        assert rows == [("B", 3), ("C", 1)]

    def test_between(self, catalog):
        rows = run(
            catalog, "select price from trades where price between 10 and 20"
        )
        assert rows == [(10.0,), (20.0,), (12.0,)]

    def test_in_list(self, catalog):
        rows = run(
            catalog, "select sym from trades where sym in ('A', 'C')"
        )
        assert [r[0] for r in rows] == ["A", "A", "C", "C"]

    def test_not_in_list(self, catalog):
        rows = run(
            catalog, "select sym from trades where sym not in ('A', 'C')"
        )
        assert [r[0] for r in rows] == ["B", "B"]

    def test_is_null(self, catalog):
        rows = run(catalog, "select sym from trades where price is null")
        assert rows == [("C",)]

    def test_is_not_null(self, catalog):
        rows = run(
            catalog,
            "select sym from trades where qty is not null and price is not null",
        )
        assert len(rows) == 4

    def test_null_comparison_never_matches(self, catalog):
        rows = run(catalog, "select sym from trades where price > 0")
        assert len(rows) == 5, "NULL price row excluded"
        rows = run(catalog, "select sym from trades where not (price > 0)")
        assert rows == [], "NOT(NULL) is still not true"

    def test_arithmetic_in_select(self, catalog):
        rows = run(
            catalog,
            "select price * qty as notional from trades where sym = 'A'",
        )
        assert rows == [(50.0,), (84.0,)]

    def test_division_is_double(self, catalog):
        rows = run(catalog, "select qty / 2 from trades where sym = 'A'")
        assert rows == [(2.5,), (3.5,)]

    def test_literal_column(self, catalog):
        rows = run(catalog, "select 42, sym from syms limit 1")
        assert rows == [(42, "A")]

    def test_case_when(self, catalog):
        rows = run(
            catalog,
            "select case when price >= 20 then 'hi' else 'lo' end b, sym "
            "from trades where price is not null order by price",
        )
        assert rows[0] == ("lo", "C")
        assert rows[-1] == ("hi", "B")

    @pytest.mark.parametrize(
        "branches", ["then 1 else 'x'", "then 'x' else 1"]
    )
    def test_case_branches_without_common_type_rejected(
        self, catalog, branches
    ):
        """A STR branch beside an LNG one fails at compile time, in either
        order, instead of typing the column LNG and failing mid-run."""
        stmt = parse_select(
            f"select case when qty > 0 {branches} end from trades"
        )
        with pytest.raises(BindError):
            compile_select(catalog, stmt)

    def test_cast(self, catalog):
        rows = run(
            catalog,
            "select cast(price as int) from trades where sym = 'B' "
            "order by price",
        )
        assert rows == [(20,), (21,)]


class TestAggregation:
    def test_scalar_aggregates(self, catalog):
        rows = run(
            catalog,
            "select count(*), count(price), sum(qty), min(price), "
            "max(price), avg(qty) from trades",
        )
        assert rows == [(6, 5, 20, 9.0, 21.0, 4.0)]

    def test_group_by(self, catalog):
        rows = run(
            catalog,
            "select sym, sum(qty) q, count(*) c from trades group by sym "
            "order by sym",
        )
        assert rows == [("A", 12, 2), ("B", 3, 2), ("C", 5, 2)]

    def test_having(self, catalog):
        rows = run(
            catalog,
            "select sym, count(*) c from trades group by sym "
            "having sum(qty) > 4 order by sym",
        )
        assert rows == [("A", 2), ("C", 2)]

    def test_having_without_group_by_filters_the_row(self, catalog):
        """Regression: HAVING without GROUP BY was dropped, so the one
        aggregate row came back whatever HAVING said."""
        sql = "select sum(qty) from trades having sum(qty) > {}"
        assert run(catalog, sql.format(100)) == []
        assert run(catalog, sql.format(10)) == [(20,)]
        # an aggregate only HAVING reads is computed all the same
        sql = "select sum(qty) s from trades having count(*) > {}"
        assert run(catalog, sql.format(9)) == []
        assert run(catalog, sql.format(5)) == [(20,)]

    def test_one_time_query_keeps_duplicate_names(self, catalog):
        compiled = compile_select(
            catalog, parse_select("select count(qty), count(*) from trades")
        )
        assert compiled.output_names == ["count", "count"]

    def test_aggregate_arithmetic(self, catalog):
        rows = run(
            catalog,
            "select sym, sum(price) / count(price) m from trades "
            "group by sym order by sym",
        )
        assert rows == [("A", 11.0), ("B", 20.5), ("C", 9.0)]

    def test_group_key_expression(self, catalog):
        rows = run(
            catalog,
            "select qty % 2 as parity, count(*) from trades "
            "where qty is not null group by qty % 2 order by parity",
        )
        assert rows == [(0, 1), (1, 4)]

    def test_bare_column_without_group_rejected(self, catalog):
        with pytest.raises(BindError):
            run(catalog, "select sym, count(*) from trades")

    def test_ungrouped_column_rejected(self, catalog):
        with pytest.raises(BindError):
            run(
                catalog,
                "select qty, count(*) from trades group by sym",
            )

    def test_distinct_aggregate_rejected(self, catalog):
        with pytest.raises(BindError):
            run(catalog, "select count(distinct sym) from trades")

    def test_multi_column_group(self, catalog):
        rows = run(
            catalog,
            "select sym, qty, count(*) from trades where qty is not null "
            "group by sym, qty order by sym, qty",
        )
        assert len(rows) == 5


class TestJoins:
    def test_inner_join(self, catalog):
        rows = run(
            catalog,
            "select t.sym, s.sector from trades t join syms s "
            "on t.sym = s.sym where t.price > 11 order by t.sym",
        )
        assert rows == [("A", "tech"), ("B", "energy"), ("B", "energy")]

    def test_comma_join_with_where(self, catalog):
        rows = run(
            catalog,
            "select t.sym, s.sector from trades t, syms s "
            "where t.sym = s.sym and t.qty = 5",
        )
        assert rows == [("A", "tech")]

    def test_comma_join_compiles_to_join_not_crossproduct(self):
        """The suite's join_agg query written as a comma-join joins on its
        WHERE equality and answers exactly like the JOIN ... ON form."""
        from repro import DataCell

        body = (
            "select d.region, sum(t.v), count(t.v), max(t.v) from "
            "[select * from {b} where {b}.v >= 100] as t"
        )
        forms = {
            "on": body + " join dim d on t.k = d.k group by d.region",
            "comma": body + ", dim d where t.k = d.k group by d.region",
        }
        cell = DataCell()
        cell.execute("create table dim (k int, region int)")
        cell.insert("dim", [(k, k % 7) for k in range(50)] + [(None, 3)])
        rows = [(k % 60, 90 + 3 * k) for k in range(120)] + [(None, 500)]
        queries = {}
        for name, sql in forms.items():
            cell.execute(f"create basket {name}_s (k int, v int)")
            sql = sql.format(b=f"{name}_s")
            program = compile_continuous(
                cell.catalog, parse_select(sql)
            ).program
            ops = {(i.module, i.fn) for i in program.instructions}
            assert ("algebra", "join") in ops
            assert ("algebra", "crossproduct") not in ops
            queries[name] = cell.submit_continuous(sql, name=name)
            cell.insert(f"{name}_s", rows)
        cell.run_until_quiescent()
        on, comma = (queries[n].fetch() for n in ("on", "comma"))
        assert on and comma == on

    def test_comma_join_keeps_other_conjuncts(self, catalog):
        rows = run(
            catalog,
            "select t.sym, s.sector from trades t, syms s "
            "where t.price > 11 and t.sym = s.sym order by t.sym",
        )
        assert rows == [("A", "tech"), ("B", "energy"), ("B", "energy")]

    def test_cross_join_count(self, catalog):
        rows = run(
            catalog,
            "select count(*) from trades cross join syms",
        )
        assert rows == [(18,)]

    def test_join_with_residual_condition(self, catalog):
        rows = run(
            catalog,
            "select t.sym from trades t join syms s "
            "on t.sym = s.sym and t.price > 20",
        )
        assert rows == [("B",)]

    def test_unmatched_rows_dropped(self, catalog):
        rows = run(
            catalog,
            "select distinct s.sym from syms s join trades t "
            "on s.sym = t.sym order by s.sym",
        )
        assert rows == [("A",), ("B",), ("C",)] or rows == [("A",), ("B",)]
        # 'D' never trades; 'C' only with NULL price rows still join
        assert ("D",) not in rows

    def test_left_join_rejected_with_message(self, catalog):
        with pytest.raises(BindError):
            run(
                catalog,
                "select s.sym from syms s left join trades t "
                "on s.sym = t.sym",
            )

    def test_ambiguous_column_rejected(self, catalog):
        with pytest.raises(BindError):
            run(
                catalog,
                "select sym from trades t join syms s on t.sym = s.sym",
            )


class TestOrderDistinctLimit:
    def test_order_by(self, catalog):
        rows = run(
            catalog,
            "select price from trades where price is not null order by price",
        )
        assert [r[0] for r in rows] == [9.0, 10.0, 12.0, 20.0, 21.0]

    def test_order_desc(self, catalog):
        rows = run(catalog, "select qty from trades order by qty desc limit 2")
        assert [r[0] for r in rows] == [7, 5]

    def test_multi_key_order(self, catalog):
        rows = run(
            catalog, "select sym, price from trades order by sym, price desc"
        )
        assert rows[0] == ("A", 12.0)
        assert rows[1] == ("A", 10.0)

    def test_order_by_alias(self, catalog):
        rows = run(
            catalog,
            "select price * 2 as dbl from trades "
            "where price is not null order by dbl limit 1",
        )
        assert rows == [(18.0,)]

    def test_distinct(self, catalog):
        rows = run(catalog, "select distinct sym from trades order by sym")
        assert rows == [("A",), ("B",), ("C",)]

    def test_limit_zero(self, catalog):
        assert run(catalog, "select sym from trades limit 0") == []

    def test_subquery(self, catalog):
        rows = run(
            catalog,
            "select big.sym from (select sym, price from trades "
            "where price > 15) as big order by big.sym",
        )
        assert rows == [("B",), ("B",)]


class TestContinuousCompilation:
    def test_requires_basket_expr(self, catalog):
        with pytest.raises(BindError):
            compile_continuous(catalog, parse_select("select * from trades"))

    def test_basket_expr_requires_basket(self, catalog):
        with pytest.raises(BindError):
            compile_continuous(
                catalog,
                parse_select("select * from [select * from trades] as s"),
            )

    def test_one_time_rejects_basket_expr(self, catalog):
        with pytest.raises(BindError):
            compile_select(
                catalog,
                parse_select("select * from [select * from trades] as s"),
            )

    def test_continuous_metadata(self, catalog):
        cat = catalog
        from repro.core.basket import Basket
        from repro.core.clock import LogicalClock

        cat.register(Basket("ticks", [("p", AtomType.DBL)], LogicalClock()))
        compiled = compile_continuous(
            cat,
            parse_select(
                "select s.p from [select * from ticks where ticks.p > 5.0] "
                "as s"
            ),
        )
        assert compiled.is_continuous
        assert compiled.basket_inputs[0].basket == "ticks"
        assert compiled.output_names == ["p"]
        assert compiled.output_atoms == [AtomType.DBL]
        # snapshot columns (incl. dc_time) are program inputs
        assert any("s.p" in i for i in compiled.program.inputs)
        assert any("dc_time" in i for i in compiled.program.inputs)

    def test_basket_expr_group_by_rejected(self, catalog):
        from repro.core.basket import Basket
        from repro.core.clock import LogicalClock

        catalog.register(
            Basket("ticks2", [("p", AtomType.DBL)], LogicalClock())
        )
        with pytest.raises(BindError):
            compile_continuous(
                catalog,
                parse_select(
                    "select * from [select p from ticks2 group by p] as s"
                ),
            )


class TestAgainstPythonReference:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["x", "y", "z"]),
                st.one_of(st.integers(-50, 50), st.none()),
            ),
            max_size=60,
        ),
        st.integers(-40, 40),
    )
    def test_filtered_group_sum(self, rows, pivot):
        cat = Catalog()
        t = cat.create_table(
            "d", [("k", AtomType.STR), ("v", AtomType.INT)]
        )
        t.append_rows(rows)
        got = run(
            cat,
            f"select k, sum(v) s, count(*) c from d where v > {pivot} "
            "group by k order by k",
        )
        expected = {}
        for k, v in rows:
            if v is not None and v > pivot:
                agg = expected.setdefault(k, [0, 0])
                agg[0] += v
                agg[1] += 1
        ref = sorted((k, s, c) for k, (s, c) in expected.items())
        assert got == ref

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), max_size=50),
        st.integers(0, 10),
    )
    def test_order_limit(self, values, limit):
        cat = Catalog()
        t = cat.create_table("d", [("v", AtomType.INT)])
        t.append_rows([(v,) for v in values])
        got = run(cat, f"select v from d order by v limit {limit}")
        assert [r[0] for r in got] == sorted(values)[:limit]


def opcodes(catalog, sql):
    program = compile_select(catalog, parse_select(sql)).program
    return [f"{ins.module}.{ins.fn}" for ins in program.instructions]


class TestRangeRule:
    """A lower and an upper bound on one column are one range select."""

    def test_two_bounds_one_select(self, catalog):
        sql = "select sym from trades where price >= 10 and price < 20"
        ops = opcodes(catalog, sql)
        assert ops.count("algebra.select") == 1
        assert "algebra.thetaselect" not in ops
        assert run(catalog, sql) == [("A",), ("A",)]

    def test_fig1_lowers_to_four_calls(self):
        from repro import DataCell

        cell = DataCell()
        cell.execute("create basket s (k int, v int)")
        query = cell.submit_continuous(
            "select t.k, t.v from "
            "[select * from s where s.v >= 100 and s.v < 200] as t"
        )
        cell.insert("s", [(1, 150), (2, 250), (3, 99), (4, 100)])
        cell.run_until_quiescent()
        assert sorted(query.fetch()) == [(1, 150), (4, 100)]
        calls = sum(op["calls"] for op in cell.stats()["mal"].values())
        assert calls == 4 and query.factory.activations == 1

    def test_null_bound_and_other_columns_stay_apart(self, catalog):
        ops = opcodes(
            catalog,
            "select sym from trades where price > null and price < 20",
        )
        assert ops.count("algebra.thetaselect") == 2
        ops = opcodes(
            catalog, "select sym from trades where price > 1 and qty < 20"
        )
        assert ops.count("algebra.thetaselect") == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(-6, 6)), max_size=30),
        st.lists(
            st.tuples(st.sampled_from(["<", "<=", ">", ">=", "="]),
                      st.integers(-5, 5), st.booleans()),
            min_size=1, max_size=4,
        ),
    )
    def test_matches_python(self, values, bounds):
        cat = Catalog()
        cat.create_table("d", [("v", AtomType.LNG)]).append_rows(
            [(v,) for v in values]
        )
        ops = {"<": int.__lt__, "<=": int.__le__, ">": int.__gt__,
               ">=": int.__ge__, "=": int.__eq__}
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        where = " and ".join(
            f"{lit} {flip[op]} v" if literal_first else f"v {op} {lit}"
            for op, lit, literal_first in bounds
        )
        got = run(cat, f"select v from d where {where}")
        expected = [
            (v,) for v in values
            if v is not None and all(ops[op](v, lit) for op, lit, _ in bounds)
        ]
        assert got == expected


class TestContinuousQueries:
    """Continuous queries on a cell."""

    def cell(self):
        from repro import DataCell

        cell = DataCell()
        cell.execute("create basket s (a int, v int)")
        return cell

    def test_having_without_group_by(self):
        """Regression: ungrouped HAVING was dropped."""
        cell = self.cell()
        q = cell.submit_continuous(
            "select sum(x.v) from [select * from s] as x "
            "having sum(x.v) > 100"
        )
        cell.insert("s", [(1, 10), (2, 20), (1, 5), (2, 7)])
        cell.run_until_quiescent()
        assert q.fetch() == []
        cell.insert("s", [(1, 101)])
        cell.run_until_quiescent()
        assert q.fetch() == [(101,)]
        cell.stop()

    @pytest.mark.parametrize(
        "items,tail,column",
        [
            ("count(x.v), count(*)", "", "count"),
            ("sum(x.a), sum(x.a)", " window 2", "sum"),
            ("distinct x.a, x.a", "", "a"),
        ],
    )
    def test_duplicate_output_names_rejected(
        self, items, tail, column
    ):
        """Regression: a repeated output name failed late, at output
        basket creation."""
        cell = self.cell()
        sql = "select {} from [select * from s] as x" + tail
        with pytest.raises(BindError, match=f"'{column}'.*alias"):
            cell.submit_continuous(sql.format(items), name="dup")
        assert not cell.catalog.has("dup_out")
        # an alias on the second item makes the query legal
        cell.submit_continuous(sql.format(items + " as other"), name="ok")
        names = [c.name for c in cell.basket("ok_out").user_columns]
        assert "other" in names
        cell.stop()

    def test_failed_registration_records_no_fallback(self):
        """A query that fails to register (here on the repeated ``k``
        its ``*`` expands to) leaves nothing behind."""
        cell = self.cell()
        cell.execute("create basket lt (k int, a int)")
        cell.execute("create basket rt (k int, b int)")
        with pytest.raises(CatalogError, match="duplicate column"):
            cell.submit_continuous(
                "select * from [select * from lt] as x, "
                "[select * from rt] as y where x.k = y.k"
            )
        assert cell.incremental_fallbacks == []
        assert cell.continuous_queries() == []
        cell.stop()
