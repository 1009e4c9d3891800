"""Tests for the baseline comparators (tuple engine, naive re-eval)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MapOperator,
    NaiveReEvalWindow,
    ProjectOperator,
    SelectOperator,
    TupleEngine,
    WindowAggregateOperator,
)
from repro.errors import DataCellError


class TestOperators:
    def test_select(self):
        engine = TupleEngine()
        sink = engine.register(
            "q", SelectOperator(lambda row: row[0] > 10)
        )
        engine.push_many([(5,), (15,), (25,)])
        assert sink.rows == [(15,), (25,)]

    def test_project(self):
        engine = TupleEngine()
        head = SelectOperator(lambda row: True)
        head.then(ProjectOperator([1]))
        sink = engine.register("q", head)
        engine.push((1, "x"))
        assert sink.rows == [("x",)]

    def test_map(self):
        engine = TupleEngine()
        sink = engine.register("q", MapOperator(lambda r: (r[0] * 2,)))
        engine.push((21,))
        assert sink.rows == [(42,)]

    def test_chaining_counts_per_stage(self):
        head = SelectOperator(lambda r: r[0] % 2 == 0)
        project = ProjectOperator([0])
        head.then(project)
        engine = TupleEngine()
        engine.register("q", head)
        engine.push_many([(i,) for i in range(10)])
        assert head.tuples_seen == 10
        assert project.tuples_seen == 5

    def test_every_pipeline_sees_every_tuple(self):
        """The tuple-at-a-time model: each event hits each query."""
        engine = TupleEngine()
        a = SelectOperator(lambda r: True)
        b = SelectOperator(lambda r: False)
        engine.register("a", a)
        engine.register("b", b)
        engine.push_many([(1,), (2,)])
        assert a.tuples_seen == b.tuples_seen == 2

    def test_duplicate_pipeline_rejected(self):
        engine = TupleEngine()
        engine.register("q", SelectOperator(lambda r: True))
        with pytest.raises(DataCellError):
            engine.register("q", SelectOperator(lambda r: True))

    def test_unknown_results(self):
        with pytest.raises(DataCellError):
            TupleEngine().results("ghost")


class TestWindowOperator:
    def test_grouped_sliding_sum(self):
        engine = TupleEngine()
        sink = engine.register(
            "w", WindowAggregateOperator(0, 1, size=2, slide=2, aggregate="sum")
        )
        engine.push_many(
            [("a", 1), ("a", 2), ("b", 10), ("a", 3), ("a", 4), ("b", 20)]
        )
        assert ("a", 3.0) in sink.rows
        assert ("a", 7.0) in sink.rows
        assert ("b", 30.0) in sink.rows

    def test_bad_aggregate(self):
        with pytest.raises(DataCellError):
            WindowAggregateOperator(0, 1, 2, 2, aggregate="median")


class TestNaiveReEval:
    def test_geometry_validation(self):
        with pytest.raises(DataCellError):
            NaiveReEvalWindow(0, 1)
        with pytest.raises(DataCellError):
            NaiveReEvalWindow(5, 10)
        with pytest.raises(DataCellError):
            NaiveReEvalWindow(5, 5, aggregate="weird")

    def test_tumbling_sum(self):
        w = NaiveReEvalWindow(3, 3, "sum")
        emitted = [w.insert(v) for v in [1, 2, 3, 4, 5, 6]]
        assert [e for e in emitted if e is not None] == [6.0, 15.0]

    def test_sliding_window(self):
        w = NaiveReEvalWindow(3, 1, "max")
        for v in [5, 1, 4, 2, 9]:
            w.insert(v)
        # windows: [5,1,4] -> 5, [1,4,2] -> 4, [4,2,9] -> 9
        assert w.results == [5.0, 4.0, 9.0]

    def test_work_counter_grows_quadratically_vs_incremental(self):
        """The W1 claim, on the baselines: full rescan cost = windows*size."""
        w = NaiveReEvalWindow(50, 1, "sum")
        for v in range(200):
            w.insert(v)
        emissions = len(w.results)
        assert w.values_processed == emissions * 50

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), max_size=80),
        st.integers(1, 10),
        st.data(),
    )
    def test_agrees_with_datacell_incremental(self, values, size, data):
        """The naive baseline and the DataCell window plan agree."""
        slide = data.draw(st.integers(1, size))
        from repro.core.basket import Basket
        from repro.core.clock import LogicalClock
        from repro.core.factory import ConsumeMode, Factory, InputBinding
        from repro.core.windows import (
            WindowAggregatePlan,
            WindowMode,
            WindowSpec,
        )
        from repro.kernel.types import AtomType

        naive = NaiveReEvalWindow(size, slide, "sum")
        for v in values:
            naive.insert(v)

        clock = LogicalClock()
        inp = Basket("i", [("v", AtomType.DBL)], clock)
        plan = WindowAggregatePlan(
            "i", "v", ["sum"], WindowSpec(WindowMode.COUNT, size, slide), "o"
        )
        out = Basket("o", plan.output_schema(), clock)
        f = Factory("w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out])
        if values:
            inp.insert_rows([(v,) for v in values])
            f.activate()
        datacell = [r[1] for r in out.rows()]
        # NaiveReEvalWindow emits its first window after `size` tuples and
        # then every `slide`; the DataCell plan uses origin-aligned windows
        # [k*slide, k*slide+size) — identical sequences.
        assert len(datacell) == len(naive.results)
        for a, b in zip(datacell, naive.results):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
