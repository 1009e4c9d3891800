"""Tests for the WINDOW n [SLIDE m] language extension (§3.1 as syntax)."""

import pytest

from repro import DataCell, LogicalClock
from repro.errors import BindError, SqlError, SqlSyntaxError
from repro.sql.parser import parse_select


@pytest.fixture
def cell():
    c = DataCell(clock=LogicalClock())
    c.execute("create basket ticks (sym varchar(5), price double)")
    return c


def feed(cell, n=8):
    for i in range(n):
        cell.insert("ticks", [("A" if i % 2 else "B", float(i))])
    cell.run_until_quiescent()


class TestParsing:
    def test_window_clause(self):
        s = parse_select(
            "select avg(p) from [select * from b] as x window 10 slide 5"
        )
        assert s.window == 10 and s.window_slide == 5

    def test_window_without_slide_is_tumbling(self):
        s = parse_select("select avg(p) from [select * from b] as x window 10")
        assert s.window == 10 and s.window_slide is None

    def test_window_requires_positive_number(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("select avg(p) from [select * from b] as x window 0")

    def test_fractional_count_window_rejected_at_submit(self):
        from repro import DataCell, LogicalClock
        from repro.errors import DataCellError

        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket b (p double)")
        with pytest.raises(DataCellError):
            cell.submit_continuous(
                "select avg(x.p) from [select * from b] as x window 2.5"
            )

    def test_window_still_usable_as_identifier(self):
        s = parse_select("select window from t")
        assert s.window is None

    def test_time_window_clause(self):
        s = parse_select(
            "select avg(p) from [select * from b] as x "
            "window 10 seconds slide 5 seconds"
        )
        assert s.window == 10 and s.window_slide == 5 and s.window_time

    def test_time_window_fractional(self):
        s = parse_select(
            "select avg(p) from [select * from b] as x window 2.5 seconds"
        )
        assert s.window == 2.5 and s.window_time

    def test_mismatched_units_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_select(
                "select avg(p) from [select * from b] as x "
                "window 10 slide 5 seconds"
            )


class TestExecution:
    def test_tumbling_aggregate(self, cell):
        q = cell.submit_continuous(
            "select sum(x.price) from [select * from ticks] as x window 4"
        )
        feed(cell)
        assert q.fetch() == [(0, 6.0), (1, 22.0)]

    def test_sliding_multiple_aggregates(self, cell):
        q = cell.submit_continuous(
            "select avg(x.price), max(x.price) from "
            "[select * from ticks] as x window 4 slide 2"
        )
        feed(cell)
        assert q.fetch() == [(0, 1.5, 3.0), (1, 3.5, 5.0), (2, 5.5, 7.0)]

    def test_count_star(self, cell):
        q = cell.submit_continuous(
            "select count(*) from [select * from ticks] as x window 3"
        )
        feed(cell, 7)
        assert q.fetch() == [(0, 3), (1, 3)]

    def test_grouped_window(self, cell):
        q = cell.submit_continuous(
            "select x.sym, sum(x.price) from [select * from ticks] as x "
            "group by x.sym window 4"
        )
        feed(cell)
        assert sorted(q.fetch()) == [
            (0, "A", 4.0), (0, "B", 2.0), (1, "A", 12.0), (1, "B", 10.0),
        ]

    @pytest.mark.parametrize("execution", ["reeval", "incremental"])
    @pytest.mark.parametrize(
        "ddl,keys",
        [
            ("int", [3, None, 7]),
            ("bigint", [2**40, None, -1]),
            ("double", [0.5, None, -2.25]),
            ("varchar(4)", ["a", None, "b"]),
        ],
    )
    def test_group_key_keeps_its_atom(self, execution, ddl, keys):
        """Regression: window GROUP BY stringified its keys, so an ``int``
        key raised ``TypeMismatchError: cannot append str BAT to int
        BAT`` at the first emit.  A NIL key forms one group."""
        cell = DataCell(clock=LogicalClock(), execution=execution)
        cell.execute(f"create basket s (k {ddl}, v int)")
        q = cell.submit_continuous(
            "select x.k, sum(x.v), count(*) from [select * from s] as x "
            "group by x.k window 4 slide 2"
        )
        a, nil, b = keys
        cell.insert("s", [(a, 1), (nil, 2), (a, 3), (nil, 4), (b, 5), (b, 6)])
        cell.run_until_quiescent()
        assert q.fetch() == [
            (0, a, 4.0, 2), (0, None, 6.0, 2),
            (1, a, 3.0, 1), (1, None, 4.0, 1), (1, b, 11.0, 2),
        ]
        assert cell.basket(f"{q.name}_out").schema.atom("k") is (
            cell.basket("s").schema.atom("k")
        )

    def test_select_list_aliases_name_the_columns(self, cell):
        """Regression: WINDOW queries ignored select-list aliases."""
        q = cell.submit_continuous(
            "select x.sym as s, sum(x.price) as total from "
            "[select * from ticks] as x group by x.sym window 4"
        )
        names = [c.name for c in cell.basket(f"{q.name}_out").user_columns]
        assert names == ["window_id", "s", "total"]
        feed(cell)
        assert sorted(q.fetch())[:2] == [(0, "A", 4.0), (0, "B", 2.0)]

    def test_columns_follow_the_select_list(self, cell):
        """Regression: the window plan emitted (window_id, key, aggs)
        whatever order the select list gave."""
        q = cell.submit_continuous(
            "select count(*), sum(x.price), x.sym from "
            "[select * from ticks] as x group by x.sym window 4"
        )
        names = [c.name for c in cell.basket(f"{q.name}_out").user_columns]
        assert names == ["window_id", "count_star", "sum", "sym"]
        feed(cell)
        assert sorted(q.fetch()) == [
            (0, 2, 2.0, "B"), (0, 2, 4.0, "A"),
            (1, 2, 10.0, "B"), (1, 2, 12.0, "A"),
        ]

    def test_repeated_aggregate_needs_an_alias(self, cell):
        from repro.errors import BindError

        with pytest.raises(BindError, match="'sum'.*alias"):
            cell.submit_continuous(
                "select sum(x.price), sum(x.price) from "
                "[select * from ticks] as x window 2"
            )
        q = cell.submit_continuous(
            "select sum(x.price), sum(x.price) as again from "
            "[select * from ticks] as x window 2"
        )
        feed(cell, 4)
        assert q.fetch() == [(0, 1.0, 1.0), (1, 5.0, 5.0)]

    def test_time_window_execution(self, cell):
        q = cell.submit_continuous(
            "select sum(x.price) from [select * from ticks] as x "
            "window 2 seconds"
        )
        for i in range(8):
            cell.clock.set(float(i) * 0.5)
            cell.insert("ticks", [("A", float(i))])
            cell.run_until_quiescent()
        # windows [0,2): t=0,0.5,1.0,1.5 -> 0+1+2+3
        assert q.fetch() == [(0, 6.0)]

    def test_stream_fully_consumed(self, cell):
        cell.submit_continuous(
            "select sum(x.price) from [select * from ticks] as x window 4"
        )
        feed(cell)
        assert cell.basket("ticks").count == 0


class TestValidation:
    def test_requires_basket_expression(self, cell):
        cell.execute("create table plain (p double)")
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select avg(p) from plain as x window 4"
            )

    def test_rejects_inner_where(self, cell):
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select avg(x.price) from "
                "[select * from ticks where ticks.price > 1] as x window 4"
            )

    def test_rejects_non_aggregate_items(self, cell):
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select x.price from [select * from ticks] as x window 4"
            )

    def test_rejects_mixed_value_columns(self, cell):
        cell.execute("create basket two (a double, b double)")
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select sum(x.a), sum(x.b) from [select * from two] as x "
                "window 4"
            )

    def test_rejects_order_by(self, cell):
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select avg(x.price) from [select * from ticks] as x "
                "order by 1 window 4"
            )

    def test_group_key_in_select_list_allowed(self, cell):
        q = cell.submit_continuous(
            "select x.sym, count(*) from [select * from ticks] as x "
            "group by x.sym window 2"
        )
        feed(cell, 4)
        assert sorted(q.fetch()) == [(0, "A", 1), (0, "B", 1),
                                     (1, "A", 1), (1, "B", 1)]

    def test_rejects_window_on_one_time_query(self, cell):
        cell.execute("create table plain (p double)")
        cell.execute("insert into plain values (1.0), (2.0)")
        with pytest.raises(SqlError):
            cell.query("select sum(p) from plain window 4")

    def test_rejects_window_on_subquery(self, cell):
        cell.execute("create table plain (p double)")
        with pytest.raises(SqlError):
            cell.query("select z.p from (select * from plain window 1) as z")

    def test_rejects_window_inside_basket_expression(self, cell):
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select x.price from [select * from ticks window 2] as x"
            )

    def test_rejects_distinct_aggregates(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket s (v int)")
        with pytest.raises(SqlError):
            cell.submit_continuous(
                "select count(distinct x.v), sum(distinct x.v) "
                "from [select * from s] as x window 4"
            )

    @pytest.mark.parametrize("execution", ["reeval", "incremental"])
    @pytest.mark.parametrize("agg", ["min", "max", "sum", "count"])
    def test_rejects_aggregates_over_varchar_at_submit(self, execution, agg):
        cell = DataCell(clock=LogicalClock(), execution=execution)
        cell.execute("create basket b (s varchar(8), v int)")
        with pytest.raises(BindError, match="VARCHAR column 's'"):
            cell.submit_continuous(
                f"select {agg}(w.s) from [select * from b] as w window 4"
            )
        assert cell.continuous_queries() == []
        # a VARCHAR group key over a numeric value column still registers
        query = cell.submit_continuous(
            "select w.s, max(w.v) from [select * from b] as w "
            "group by w.s window 2"
        )
        cell.insert("b", [("a", 1), ("a", 3)])
        cell.run_until_quiescent()
        assert [row[1:] for row in query.fetch()] == [("a", 3)]


class TestExplain:
    def test_explain_renders_the_window_plan(self, cell):
        sql = (
            "select x.sym, sum(x.price) from [select * from ticks] as x "
            "group by x.sym window 4 slide 2"
        )
        text = cell.explain(sql)
        assert text == cell.submit_continuous(sql).explain()
        assert text.startswith("window(['sum']")
        assert "aggr." not in text

