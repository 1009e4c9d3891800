"""Engine-level differential tests for ``CREATE VIEW``.

A view's weighted circuit (aggregate, join) integrates to the one-shot
answer over the same input; a shape with no circuit is rejected with its
reason and registers nothing; and a WINDOW query, a continuous SELECT,
matches the re-eval reference row for row.
"""

import pickle
from collections import Counter

import pytest

from repro import DataCell, WindowMode, WindowSpec
from repro.baselines.reeval import ReEvalWindowAggregatePlan
from repro.errors import BindError, DataCellError
from repro.incremental import WEIGHT_COLUMN
from repro.kernel.types import AtomType

ROWS = [(k % 4, v) for k, v in zip(range(24), range(-5, 19))]


def _feed_cell():
    cell = DataCell()
    cell.create_basket("feed", [("a", AtomType.INT), ("b", AtomType.INT)])
    return cell


def _drive(cell, rows=ROWS, basket="feed", batch=5):
    for i in range(0, len(rows), batch):
        cell.insert(basket, [list(r) for r in rows[i : i + batch]])
        cell.run_until_quiescent()


class TestLinearCircuits:
    def test_fetch_integrated_requires_weighted_output(self):
        cell = _feed_cell()
        handle = cell.submit_continuous(
            "select x.a from [select * from feed] as x"
        )
        with pytest.raises(DataCellError):
            handle.fetch_integrated()


class TestWeightedCircuits:
    def test_aggregate_without_group_by_has_its_row_over_no_rows(self):
        """As the one-time query does, the view answers one row before
        any input and while its WHERE has let nothing through."""
        cell = _feed_cell()
        handle = cell.submit_continuous(
            "create view total as select count(*), sum(x.b), min(x.b) "
            "from [select * from feed] as x where x.b > 10"
        )
        cell.run_until_quiescent()
        assert handle.fetch_integrated() == [(0, None, None)]
        _drive(cell, ROWS[:12])  # b runs up to 6
        assert handle.fetch_integrated() == [(0, None, None)]
        _drive(cell, ROWS[12:])
        assert handle.fetch_integrated() == [(8, 116, 11)]

    def test_aggregate_integrates_to_one_shot(self):
        cell = _feed_cell()
        handle = cell.submit_continuous(
            "create view agg as "
            "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
            "from [select * from feed] as x group by x.a"
        )
        assert handle.weighted and handle.name == "agg"
        # the output basket carries the weight as its last column
        out_columns = [c.name for c in cell.basket("agg_out").user_columns]
        assert out_columns[-1] == WEIGHT_COLUMN
        assert cell.basket("agg_out").weighted
        _drive(cell)
        ref = DataCell()
        table = ref.create_table(
            "feed", [("a", AtomType.INT), ("b", AtomType.INT)]
        )
        table.append_rows([list(r) for r in ROWS])
        oneshot = ref.query(
            "select a, sum(b), count(b), min(b), max(b) "
            "from feed group by a"
        )
        assert Counter(handle.fetch_integrated()) == Counter(
            tuple(r) for r in oneshot
        )

    def test_join_integrates_to_one_shot(self):
        cell = DataCell()
        cell.create_basket("lt", [("k", AtomType.INT), ("a", AtomType.INT)])
        cell.create_basket("rt", [("k", AtomType.INT), ("b", AtomType.INT)])
        handle = cell.execute(
            "create view j as select x.k, x.a, y.b from [select * from lt] "
            "as x, [select * from rt] as y where x.k = y.k"
        )
        assert handle.weighted
        left = [(i % 3, i) for i in range(14)]
        right = [(i % 5, 100 + i) for i in range(11)]
        # deliberately lopsided cadence: the left stream finishes long
        # before the right one, so the factory must fire on one-sided
        # deltas to cover the residue
        _drive(cell, rows=left, basket="lt", batch=7)
        _drive(cell, rows=right, basket="rt", batch=2)
        expected = Counter(
            (lk, la, rb) for lk, la in left for rk, rb in right if lk == rk
        )
        assert Counter(handle.fetch_integrated()) == expected

    def test_one_sided_tail_is_not_stranded(self):
        cell = DataCell()
        cell.create_basket("lt", [("k", AtomType.INT), ("a", AtomType.INT)])
        cell.create_basket("rt", [("k", AtomType.INT), ("b", AtomType.INT)])
        handle = cell.submit_continuous(
            "create view j as select x.k, x.a, y.b from [select * from lt] "
            "as x, [select * from rt] as y where x.k = y.k"
        )
        cell.insert("lt", [[1, 10]])
        cell.run_until_quiescent()
        # only the right side has fresh tuples now; the pair must still
        # appear without any further left-side traffic
        cell.insert("rt", [[1, 20]])
        cell.run_until_quiescent()
        assert handle.fetch_integrated() == [(1, 10, 20)]


class TestExactAggregates:
    """A view folds integral values as python ints, so BIGINT sums and
    extrema past 2**53 answer what a one-time GROUP BY answers."""

    SQL = (
        "create view v as select x.k, sum(x.x), max(x.x), min(x.x) "
        "from [select * from h] as x group by x.k"
    )

    def _cell(self):
        cell = DataCell()
        cell.execute("create basket h (k int, x bigint)")
        return cell

    def test_bigint_view_matches_one_time_group_by(self):
        cell = self._cell()
        view = cell.submit_continuous(self.SQL)
        rows = [(1, 2**53 + 1), (1, 2)]
        cell.insert("h", rows)
        cell.run_until_quiescent()
        cell.execute("create table t (k int, x bigint)")
        cell.insert("t", rows)
        oneshot = cell.query(
            "select k, sum(x), max(x), min(x) from t group by k"
        )
        assert oneshot == [(1, 2**53 + 3, 2**53 + 1, 2)]
        assert view.fetch_integrated() == oneshot

    def test_state_saved_with_float_totals_restores_exactly(self):
        """A checkpoint written while the fold went through float64
        holds float totals and values; an integral one restores as the
        int it stands for, so the next fold is exact."""
        cell = self._cell()
        view = cell.submit_continuous(self.SQL)
        group = {
            "star": 1, "count": 1, "total": float(2**53),
            "track_minmax": True, "value_weights": {float(2**53): 1},
        }
        view.factory.plan.import_state(pickle.dumps({
            "kind": "aggregate", "deltas_processed": 1, "rows_emitted": 1,
            "agg": {"aggregates": ["sum", "max", "min"],
                    "groups": {(1,): group}},
        }, protocol=4))
        cell.insert("h", [(1, 1)])
        cell.run_until_quiescent()
        assert view.fetch() == [
            (1, 2**53, 2**53, 2**53, -1),
            (1, 2**53 + 1, 2**53, 1, 1),
        ]

    def test_state_of_another_layout_is_refused_naming_the_view(self):
        view = self._cell().submit_continuous(self.SQL)
        blob = pickle.dumps({
            "kind": "aggregate", "deltas_processed": 0, "rows_emitted": 0,
            "agg": {"aggregates": ["sum", "max", "min"], "cells": []},
        }, protocol=4)
        with pytest.raises(DataCellError, match="view 'v': saved aggregate"):
            view.factory.plan.import_state(blob)


#: a view of every shape without a circuit: (id, SELECT, reason)
NO_CIRCUIT = [
    ("linear", "select x.a from [select * from feed] as x",
     "a linear query has no circuit"),
    ("window", "select sum(x.b) from [select * from feed] as x window 4",
     "a WINDOW query has no circuit"),
    ("distinct", "select distinct x.a from [select * from feed] as x",
     "DISTINCT is not linear"),
    ("having", "select x.a, sum(x.b) from [select * from feed] as x "
     "group by x.a having sum(x.b) > 3", "HAVING over incremental"),
    ("order-by", "select x.a, sum(x.b) from [select * from feed] as x "
     "group by x.a order by x.a", "ORDER BY / LIMIT / DISTINCT"),
    ("limit", "select x.a from [select * from feed] as x limit 3",
     "outer LIMIT truncates"),
    ("non-equi-join", "select x.k, y.b from [select * from lt] as x, "
     "[select * from rt] as y where x.a < y.b",
     "join circuits need an equi-join key"),
    ("cross-side-join", "select x.k from [select * from lt] as x, "
     "[select * from rt] as y where x.k = y.k and x.a < y.b",
     "predicates spanning both join sides"),
    ("varchar-sum", "select sum(y.sym) from [select * from st] as y",
     "aggregate sum undefined on str"),
]


class TestVarcharAggregates:
    def test_count_min_max_over_varchar_match_one_time_group_by(self):
        """The kernel's STR partials answer a view's count, min and max
        as they answer the one-time GROUP BY."""
        cell = DataCell()
        cell.execute("create basket st (k int, sym varchar(4))")
        cell.execute("create table t (k int, sym varchar(4))")
        view = cell.submit_continuous(
            "create view v as select y.k, count(y.sym), min(y.sym), "
            "max(y.sym) from [select * from st] as y group by y.k"
        )
        rows = [(1, "b"), (2, None), (1, "a"), (1, None), (2, "zz")]
        for i in range(0, len(rows), 2):
            cell.insert("st", rows[i : i + 2])
            cell.insert("t", rows[i : i + 2])
            cell.run_until_quiescent()
            assert Counter(view.fetch_integrated()) == Counter(cell.query(
                "select k, count(sym), min(sym), max(sym) from t group by k"
            ))
        assert sorted(view.fetch_integrated()) == [
            (1, 2, "a", "b"), (2, 1, "zz", "zz"),
        ]


class TestRejection:
    @pytest.mark.parametrize(
        "sql,reason",
        [case[1:] for case in NO_CIRCUIT],
        ids=[case[0] for case in NO_CIRCUIT],
    )
    def test_view_without_circuit_is_rejected(self, sql, reason):
        cell = _feed_cell()
        cell.execute("create basket lt (k int, a int)")
        cell.execute("create basket rt (k int, b int)")
        cell.execute("create basket st (sym varchar(4))")
        with pytest.raises(BindError, match=reason):
            cell.execute(f"create view v as {sql}")
        assert not cell.catalog.has("v_out")
        assert cell.continuous_queries() == []
        assert cell.incremental_fallbacks == []


class TestFallback:
    def test_fallback_query_still_runs(self):
        """A shape a view rejects still runs as a continuous SELECT,
        under the name the rejected view would have taken."""
        cell = _feed_cell()
        sql = "select distinct x.a from [select * from feed] as x"
        with pytest.raises(BindError):
            cell.submit_continuous(f"create view d as {sql}")
        handle = cell.submit_continuous(sql, name="d")
        _drive(cell)
        assert sorted(set(r[0] for r in handle.fetch())) == [0, 1, 2, 3]


class TestDeltaWindows:
    @pytest.mark.parametrize("size,slide", [(4, 4), (5, 2), (8, 3)])
    def test_count_window_matches_reeval(self, size, slide):
        """The window plan matches the re-eval reference row for row
        (both registered on the same engine)."""
        values = [(i * 7) % 23 for i in range(40)]
        cell = DataCell()
        cell.create_basket("s", [("v", AtomType.LNG)])
        cell.create_basket("r", [("v", AtomType.LNG)])
        aggs = ["sum", "count", "min", "max"]
        handle = cell.submit_continuous(
            "select sum(x.v), count(x.v), min(x.v), max(x.v) "
            f"from [select * from s] as x window {size} slide {slide}",
            name="w",
        )
        reference = ReEvalWindowAggregatePlan(
            "r", "v", aggs, WindowSpec(WindowMode.COUNT, size, slide),
            "ref_out", value_atom=AtomType.LNG,
        )
        ref = cell.submit_plan(
            "ref", reference, ["r"], reference.output_schema()
        )
        for i in range(0, len(values), 3):
            for basket in ("s", "r"):
                cell.insert(basket, [[v] for v in values[i : i + 3]])
            cell.run_until_quiescent()
        rows = handle.fetch()
        assert rows and rows == ref.fetch()

    def test_explain_analyze_renders_circuit_state(self):
        cell = _feed_cell()
        handle = cell.submit_continuous(
            "create view agg as select x.a, sum(x.b) "
            "from [select * from feed] as x group by x.a"
        )
        _drive(cell)
        rendered = handle.explain_analyze()
        assert "circuit" in rendered.lower()
