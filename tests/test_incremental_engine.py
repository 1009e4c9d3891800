"""Engine-level differential tests for ``execution="incremental"``.

Every incremental route must be indistinguishable from its re-eval twin
at the API surface: linear circuits emit identical rows, weighted
circuits (aggregate, join) integrate to the one-shot answer over the
same input, unsupported shapes fall back with a recorded reason, and
window aggregates run the one window plan in either mode, matching the
re-eval reference row for row.
"""

from collections import Counter

import pytest

from repro import DataCell, WindowMode, WindowSpec
from repro.baselines.reeval import ReEvalWindowAggregatePlan
from repro.core.windows import WindowAggregatePlan
from repro.errors import DataCellError
from repro.incremental import WEIGHT_COLUMN
from repro.kernel.types import AtomType

ROWS = [(k % 4, v) for k, v in zip(range(24), range(-5, 19))]


def _feed_cell(execution):
    cell = DataCell(execution=execution)
    cell.create_basket("feed", [("a", AtomType.INT), ("b", AtomType.INT)])
    return cell


def _drive(cell, rows=ROWS, basket="feed", batch=5):
    for i in range(0, len(rows), batch):
        cell.insert(basket, [list(r) for r in rows[i : i + batch]])
        cell.run_until_quiescent()


class TestLinearCircuits:
    def test_execution_mode_is_validated(self):
        with pytest.raises(DataCellError):
            DataCell(execution="speculative")

    def test_linear_matches_reeval_row_for_row(self):
        sql = (
            "select x.a, x.b from [select * from feed] as x "
            "where x.b > 2"
        )
        outputs = {}
        for execution in ("incremental", "reeval"):
            cell = _feed_cell(execution)
            handle = cell.submit_continuous(sql, name="q")
            _drive(cell)
            outputs[execution] = [tuple(r) for r in handle.fetch()]
            assert handle.execution == execution
            assert not handle.weighted
        assert outputs["incremental"] == outputs["reeval"]

    def test_fetch_integrated_requires_weighted_output(self):
        cell = _feed_cell("incremental")
        handle = cell.submit_continuous(
            "select x.a from [select * from feed] as x"
        )
        with pytest.raises(DataCellError):
            handle.fetch_integrated()


class TestWeightedCircuits:
    def test_aggregate_integrates_to_one_shot(self):
        cell = _feed_cell("incremental")
        handle = cell.submit_continuous(
            "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
            "from [select * from feed] as x group by x.a",
            name="agg",
        )
        assert handle.weighted
        assert handle.execution == "incremental"
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
        cell = DataCell(execution="incremental")
        cell.create_basket("lt", [("k", AtomType.INT), ("a", AtomType.INT)])
        cell.create_basket("rt", [("k", AtomType.INT), ("b", AtomType.INT)])
        handle = cell.submit_continuous(
            "select x.k, x.a, y.b from [select * from lt] as x, "
            "[select * from rt] as y where x.k = y.k",
            name="j",
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
        cell = DataCell(execution="incremental")
        cell.create_basket("lt", [("k", AtomType.INT), ("a", AtomType.INT)])
        cell.create_basket("rt", [("k", AtomType.INT), ("b", AtomType.INT)])
        handle = cell.submit_continuous(
            "select x.k, x.a, y.b from [select * from lt] as x, "
            "[select * from rt] as y where x.k = y.k"
        )
        cell.insert("lt", [[1, 10]])
        cell.run_until_quiescent()
        # only the right side has fresh tuples now; the pair must still
        # appear without any further left-side traffic
        cell.insert("rt", [[1, 20]])
        cell.run_until_quiescent()
        assert handle.fetch_integrated() == [(1, 10, 20)]


class TestFallback:
    def test_unsupported_shape_falls_back_with_reason(self):
        cell = _feed_cell("incremental")
        handle = cell.submit_continuous(
            "select distinct x.a from [select * from feed] as x",
            name="d",
        )
        assert handle.execution == "reeval"
        assert not handle.weighted
        assert any(
            name == "d" and "distinct" in reason.lower()
            for name, reason in cell.incremental_fallbacks
        )

    def test_fallback_query_still_runs(self):
        cell = _feed_cell("incremental")
        handle = cell.submit_continuous(
            "select distinct x.a from [select * from feed] as x"
        )
        _drive(cell)
        assert sorted(set(r[0] for r in handle.fetch())) == [0, 1, 2, 3]

    def test_per_query_override_beats_engine_default(self):
        cell = _feed_cell("reeval")
        handle = cell.submit_continuous(
            "select x.a from [select * from feed] as x",
            execution="incremental",
        )
        assert handle.execution == "incremental"
        assert not cell.incremental_fallbacks


class TestDeltaWindows:
    @pytest.mark.parametrize("size,slide", [(4, 4), (5, 2), (8, 3)])
    def test_count_window_matches_reeval(self, size, slide):
        """On an incremental engine the window plan matches the re-eval
        reference row for row (both registered on the same engine)."""
        values = [(i * 7) % 23 for i in range(40)]
        cell = DataCell(execution="incremental")
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

    def test_window_plan_is_mode_independent(self):
        """Both engine modes register the same plan class for a SQL
        window and return identical rows, int group key included."""
        sql = (
            "select x.k, sum(x.v), min(x.v), count(*) "
            "from [select * from s] as x group by x.k window 5 slide 2"
        )
        outputs, plans = {}, set()
        for execution in ("reeval", "incremental"):
            cell = DataCell(execution=execution)
            cell.create_basket("s", [("k", AtomType.INT), ("v", AtomType.INT)])
            handle = cell.submit_continuous(sql)
            plans.add(type(handle.factory.plan))
            _drive(cell, rows=ROWS, basket="s")
            outputs[execution] = handle.fetch()
            assert not cell.incremental_fallbacks
        assert plans == {WindowAggregatePlan}
        assert outputs["reeval"] == outputs["incremental"]
        assert outputs["reeval"][0] == (0, 0, -6.0, -5.0, 2)

    def test_explain_analyze_renders_circuit_state(self):
        cell = _feed_cell("incremental")
        handle = cell.submit_continuous(
            "select x.a, sum(x.b) from [select * from feed] as x "
            "group by x.a",
            name="agg",
        )
        _drive(cell)
        rendered = handle.explain_analyze()
        assert "circuit" in rendered.lower()
