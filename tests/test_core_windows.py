"""Tests for windowed query processing (§3.1).

The load-bearing property: the engine's one window plan (a pane table)
and the *re-evaluation* reference must produce the same answers, in the
same row order, while the plan touches each tuple once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.baselines.reeval import ReEvalWindowAggregatePlan
from repro.core.windows import (
    WindowAggregatePlan,
    WindowMode,
    WindowSpec,
    basic_window_width,
)
from repro.durability.serde import (
    decode_column,
    encode_column,
    frames_with_tail,
    pack_frame,
)
from repro.errors import AggregateOverflowError, DataCellError
from repro.kernel import group as group_module
from repro.kernel.types import AtomType

AGGS = ["sum", "count", "count_star", "avg", "min", "max"]
#: drawn values per value atom: BIGINT values just past 2**53, where
#: float64 loses the low bits, and sums of 80 below 2**63
VALUES_OF = {
    AtomType.DBL: st.floats(-100, 100),
    AtomType.INT: st.integers(-(2**31) + 1, 2**31 - 1),
    AtomType.LNG: st.one_of(
        st.integers(-(2**56), 2**56), st.integers(2**53 + 1, 2**53 + 99)
    ),
}


class TestWindowSpec:
    def test_tumbling_default(self):
        spec = WindowSpec(WindowMode.COUNT, 10)
        assert spec.slide == 10 and spec.tumbling

    def test_invalid_sizes(self):
        with pytest.raises(DataCellError):
            WindowSpec(WindowMode.COUNT, 0)
        with pytest.raises(DataCellError):
            WindowSpec(WindowMode.COUNT, 10, -1)

    def test_slide_larger_than_size_rejected(self):
        with pytest.raises(DataCellError):
            WindowSpec(WindowMode.COUNT, 5, 10)

    def test_count_windows_need_integers(self):
        with pytest.raises(DataCellError):
            WindowSpec(WindowMode.COUNT, 2.5)

    def test_window_bounds(self):
        spec = WindowSpec(WindowMode.COUNT, 10, 4)
        assert spec.window_start(0) == 0
        assert spec.window_end(0) == 10
        assert spec.window_start(3) == 12

    def test_basic_window_width_is_gcd(self):
        assert basic_window_width(WindowSpec(WindowMode.COUNT, 12, 8)) == 4
        assert basic_window_width(WindowSpec(WindowMode.COUNT, 10, 10)) == 10
        assert basic_window_width(WindowSpec(WindowMode.TIME, 1.5, 0.5)) == 0.5


def assert_rows_close(expected, got, key_columns=1):
    """Same rows in the same order; aggregates equal up to float
    rounding (the plan sums panes, the reference sums tuples)."""
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a[:key_columns] == b[:key_columns]
        for x, y in zip(a[key_columns:], b[key_columns:]):
            if x is None or y is None:
                assert x == y
            else:
                assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


def drive_count_window(plan_cls, spec, values, chunks=5, aggs=None,
                       groups=None, group_atom=AtomType.STR,
                       value_atom=AtomType.DBL):
    clock = LogicalClock()
    columns = [("v", value_atom)]
    if groups is not None:
        columns.append(("g", group_atom))
    inp = Basket("w_in", columns, clock)
    plan = plan_cls(
        "w_in", "v", aggs or AGGS, spec, "w_out",
        group_column="g" if groups is not None else None,
        group_atom=group_atom, value_atom=value_atom,
    )
    out = Basket("w_out", plan.output_schema(), clock)
    factory = Factory("w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out])
    batches = np.array_split(np.arange(len(values)), chunks)
    for batch in batches:
        if len(batch) == 0:
            continue
        if groups is not None:
            inp.insert_rows(
                [(values[i], groups[i]) for i in batch]
            )
        else:
            inp.insert_rows([(values[i],) for i in batch])
        clock.advance(0.01)
        if factory.enabled():
            factory.activate()
    rows = [r[:-1] for r in out.rows()]  # strip dc_time
    return rows, plan


class TestCountWindows:
    def test_tumbling_sums(self):
        rows, _ = drive_count_window(
            WindowAggregatePlan,
            WindowSpec(WindowMode.COUNT, 4),
            [1.0] * 12,
            aggs=["sum"],
        )
        assert rows == [(0, 4.0), (1, 4.0), (2, 4.0)]

    def test_sliding_window_ids(self):
        rows, _ = drive_count_window(
            WindowAggregatePlan,
            WindowSpec(WindowMode.COUNT, 4, 2),
            list(map(float, range(10))),
            aggs=["min", "max"],
        )
        assert rows[0] == (0, 0.0, 3.0)
        assert rows[1] == (1, 2.0, 5.0)
        assert rows[2] == (2, 4.0, 7.0)

    def test_incomplete_window_not_emitted(self):
        rows, _ = drive_count_window(
            ReEvalWindowAggregatePlan,
            WindowSpec(WindowMode.COUNT, 10),
            [1.0] * 9,
            aggs=["count"],
        )
        assert rows == []

    def test_nulls_skipped_by_value_aggs_counted_by_star(self):
        values = [1.0, None, 3.0, None]
        rows, _ = drive_count_window(
            WindowAggregatePlan,
            WindowSpec(WindowMode.COUNT, 4),
            values,
            aggs=["count", "count_star", "sum"],
            chunks=1,
        )
        assert rows == [(0, 2, 4, 4.0)]

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(list(VALUES_OF)),
        st.integers(1, 12),
        st.data(),
    )
    def test_routes_equivalent(self, atom, size, data):
        """Over an integral atom the plan's int64 partials are exact, so
        the plan and the kernel's one-time aggregates agree exactly,
        BIGINT values past 2**53 included."""
        values = data.draw(st.lists(
            st.one_of(VALUES_OF[atom], st.none()), max_size=80
        ))
        slide = data.draw(st.integers(1, size))
        chunks = data.draw(st.integers(1, 6))
        spec = WindowSpec(WindowMode.COUNT, size, slide)
        r1, ref = drive_count_window(
            ReEvalWindowAggregatePlan, spec, values, chunks, value_atom=atom
        )
        r2, plan = drive_count_window(
            WindowAggregatePlan, spec, values, chunks, value_atom=atom
        )
        assert plan.output_schema() == ref.output_schema()
        if atom is AtomType.DBL:
            assert_rows_close(r1, r2)
        else:  # avg too: both divide an exact int64 sum
            assert r1 == r2

    def test_incremental_touches_each_tuple_once(self):
        values = list(map(float, range(100)))
        spec = WindowSpec(WindowMode.COUNT, 20, 5)
        _, plan = drive_count_window(
            WindowAggregatePlan, spec, values, chunks=10
        )
        assert plan.values_processed == len(values)

    def test_reeval_touches_windows_times_size(self):
        values = list(map(float, range(100)))
        spec = WindowSpec(WindowMode.COUNT, 20, 5)
        _, plan = drive_count_window(
            ReEvalWindowAggregatePlan, spec, values, chunks=10
        )
        assert plan.windows_emitted == 17
        assert plan.values_processed == 17 * 20

    def test_tuples_needed_gates_scheduling(self):
        spec = WindowSpec(WindowMode.COUNT, 10, 10)
        clock = LogicalClock()
        inp = Basket("w_in", [("v", AtomType.DBL)], clock)
        plan = WindowAggregatePlan(
            "w_in", "v", ["sum"], spec, "w_out"
        )
        assert plan.tuples_needed() == 10
        out = Basket("w_out", plan.output_schema(), clock)
        f = Factory("w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out])
        inp.insert_rows([(1.0,)] * 4)
        f.activate()
        assert plan.tuples_needed() == 6


#: the n-th key of a rotating group-key domain, per group atom
KEY_OF = {
    AtomType.STR: lambda n: f"k{n}",
    AtomType.INT: lambda n: n - 3,
    AtomType.LNG: lambda n: n * 2**40,
    AtomType.DBL: lambda n: n / 2,
}


GROUPED_CASE = given(
    st.lists(
        st.one_of(st.floats(-50, 50), st.none()), min_size=0, max_size=80
    ),
    st.sampled_from(list(KEY_OF)),
    st.sampled_from([(8, 4), (6, 3), (5, 5), (9, 2)]),
    st.data(),
)


class TestGroupedWindows:
    @settings(max_examples=20, deadline=None)
    @GROUPED_CASE
    def test_grouped_routes_equivalent(self, values, atom, window, data):
        self.check_grouped("chunks", values, atom, window, data)

    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("firing", ["one-window", "catch-up"])
    @GROUPED_CASE
    def test_grouped_routes_equivalent_on_both_sides_of_the_fold_rule(
        self, firing, values, atom, window, data
    ):
        """One-window firings fold each window's panes; one firing that
        closes 20 or more windows of a small slide takes the
        prefix-sum side of the plan's cost rule."""
        self.check_grouped(firing, values, atom, window, data)

    @staticmethod
    def check_grouped(firing, values, atom, window, data):
        if firing == "catch-up":
            window = data.draw(st.sampled_from([(10, 1), (12, 2)]))
            values = values + [1.0] * (50 - len(values))
        chunks = {
            "chunks": data.draw(st.integers(1, 6)),
            "one-window": max(len(values), 1),  # one tuple per firing
            "catch-up": 1,
        }[firing]
        # the key domain moves on every few chunks and holds a NIL
        chunk_of = np.zeros(len(values), dtype=int)
        for c, batch in enumerate(np.array_split(np.arange(len(values)),
                                                 chunks)):
            chunk_of[batch] = c
        rotate = data.draw(st.integers(1, 3)) * max(chunks // 6, 1)
        draws = [data.draw(st.sampled_from([None, 0, 1, 2])) for _ in values]
        groups = [
            None if n is None else KEY_OF[atom](n + c)
            for n, c in zip(draws, (chunk_of // rotate).tolist())
        ]
        spec = WindowSpec(WindowMode.COUNT, *window)
        r1, _ = drive_count_window(
            ReEvalWindowAggregatePlan, spec, values, chunks, AGGS, groups,
            atom,
        )
        r2, _ = drive_count_window(
            WindowAggregatePlan, spec, values, chunks, AGGS, groups, atom,
        )
        # same rows in the same order: groups by first arrival per window
        assert_rows_close(r1, r2, key_columns=2)

    def test_steady_state_firings_do_not_factorise(self, monkeypatch):
        """Known VARCHAR keys are one dict probe per tuple: only a
        snapshot holding an unseen key goes on to the key map's lookup,
        which factorises it."""
        calls, lookup = [], group_module.KeyMap.lookup
        monkeypatch.setattr(
            group_module.KeyMap, "lookup",
            lambda self, bats, rows: calls.append(rows)
            or lookup(self, bats, rows),
        )
        spec = WindowSpec(WindowMode.COUNT, 40, 10)
        keys = [f"k{i % 7}" for i in range(510)] + ["new"] * 10
        rows, _ = drive_count_window(
            WindowAggregatePlan, spec, [1.0] * 520, 52, ["count"], keys
        )
        # the first snapshot and the "new" one; 0 rows: the empty map
        assert calls == [0, 10, 10]
        assert len(rows) == 7 * 49 + 1

    @pytest.mark.parametrize("atom, key", [
        (AtomType.INT, 4), (AtomType.DBL, 0.5), (AtomType.STR, "a"),
    ])
    def test_nil_keys_are_probed(self, atom, key):
        """An INT NIL is a sentinel and a DBL NIL a NaN: either is one
        key of the plan's key map, found again by every later firing."""
        spec = WindowSpec(WindowMode.COUNT, 4, 2)
        keys = [key, None] * 50
        rows, plan = drive_count_window(
            WindowAggregatePlan, spec, [1.0] * 100, 50, ["sum"], keys, atom
        )
        assert plan._map.size == 2
        assert [r[1] for r in rows[:2]] == [key, None]
        assert len(rows) == 2 * 49

    def test_grouped_sums(self):
        values = [1.0, 2.0, 10.0, 20.0]
        groups = ["a", "a", "b", "b"]
        rows, _ = drive_count_window(
            WindowAggregatePlan,
            WindowSpec(WindowMode.COUNT, 4),
            values, 1, ["sum"], groups,
        )
        assert sorted(rows) == [(0, "a", 3.0), (0, "b", 30.0)]


def drive_time_window(plan_cls, spec, events, aggs=("sum",), grouped=False):
    """events: list of (timestamp, value) or (timestamp, value, group)."""
    clock = LogicalClock()
    columns = [("v", AtomType.DBL)] + ([("g", AtomType.INT)] * grouped)
    inp = Basket("w_in", columns, clock)
    plan = plan_cls(
        "w_in", "v", list(aggs), spec, "w_out",
        group_column="g" if grouped else None, group_atom=AtomType.INT,
    )
    out = Basket("w_out", plan.output_schema(), clock)
    factory = Factory("w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out])
    for stamp, *row in events:
        if stamp > clock.now():
            clock.set(stamp)
        inp.insert_rows([tuple(row)], timestamp=stamp)
        factory.activate()
    return [r[:-1] for r in out.rows()], plan


class TestTimeWindows:
    def test_tumbling_time(self):
        events = [(0.5, 1.0), (1.5, 2.0), (2.5, 4.0), (4.2, 8.0)]
        spec = WindowSpec(WindowMode.TIME, 2.0)
        rows, _ = drive_time_window(
            WindowAggregatePlan, spec, events
        )
        # window 0 = [0,2): 1.0; window 1 = [2,4): 4.0 (closed by the 4.2
        # watermark)
        assert rows == [(0, 3.0), (1, 4.0)]

    def test_multi_gap_stream_terminates_and_matches(self):
        """Regression: a bw sealed across a slot gap used to deadlock the
        empty-window synthesis loop (sparse streams with several multi-slot
        gaps).  Both routes must terminate and agree."""
        events = [(0.5, 1.0), (8.5, 2.0), (16.5, 4.0)]
        spec = WindowSpec(WindowMode.TIME, 4.0, 2.0)
        r1, _ = drive_time_window(
            ReEvalWindowAggregatePlan, spec, events, aggs=("sum", "count")
        )
        r2, _ = drive_time_window(
            WindowAggregatePlan, spec, events,
            aggs=("sum", "count"),
        )
        assert r1 == r2
        assert r1[0] == (0, 1.0, 1)
        assert (1, None, 0) in r1  # gap windows emitted with NULL sum

    def test_empty_window_emitted_with_nulls(self):
        events = [(0.5, 1.0), (6.5, 2.0)]
        spec = WindowSpec(WindowMode.TIME, 2.0)
        rows, _ = drive_time_window(
            WindowAggregatePlan, spec, events, aggs=("sum", "count")
        )
        assert rows[0] == (0, 1.0, 1)
        assert rows[1] == (1, None, 0), "gap window has NULL sum, 0 count"
        assert rows[2] == (2, None, 0)

    def test_boundary_epsilon_regression(self):
        """Regression: a timestamp within 1e-9 below a bw boundary used to
        be bucketed into the *next* basic window by the incremental
        route's ``floor(t/bw + 1e-9)``, while re-evaluation's exact
        half-open mask kept it in the earlier window — the two routes
        disagreed on window membership (found by the hypothesis fuzz
        below under seeded exploration)."""
        events = [(1.9999999999999964, 0.0), (2.0, 0.0)]
        spec = WindowSpec(WindowMode.TIME, 2.0, 1.0)
        r1, _ = drive_time_window(
            ReEvalWindowAggregatePlan, spec, events,
            aggs=("sum", "count", "min", "max"),
        )
        r2, _ = drive_time_window(
            WindowAggregatePlan, spec, events,
            aggs=("sum", "count", "min", "max"),
        )
        assert r1 == r2 == [(0, 0.0, 1, 0.0, 0.0)]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 30), st.floats(-10, 10)),
            max_size=50,
        ),
        st.sampled_from([(2.0, 1.0), (4.0, 2.0), (3.0, 3.0), (4.0, 1.0)]),
    )
    def test_time_routes_equivalent(self, raw_events, window):
        events = sorted(raw_events)  # in-order arrival
        size, slide = window
        spec = WindowSpec(WindowMode.TIME, size, slide)
        r1, _ = drive_time_window(
            ReEvalWindowAggregatePlan, spec, events,
            aggs=("sum", "count", "min", "max"),
        )
        r2, _ = drive_time_window(
            WindowAggregatePlan, spec, events,
            aggs=("sum", "count", "min", "max"),
        )
        assert_rows_close(r1, r2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 30), st.floats(-10, 10), st.integers(0, 20)
            ),
            max_size=50,
        ),
        st.sampled_from([(2.0, 1.0), (4.0, 2.0), (3.0, 3.0), (4.0, 1.0)]),
    )
    def test_time_grouped_out_of_order_equivalent(self, events, window):
        """Arrival order is the drawn order, so timestamps go backwards:
        a tuple older than the open window's start is late and dropped,
        as re-evaluation drops it."""
        spec = WindowSpec(WindowMode.TIME, *window)
        aggs = ("count_star", "sum", "avg", "min", "max")
        r1, _ = drive_time_window(
            ReEvalWindowAggregatePlan, spec, events, aggs, grouped=True
        )
        r2, _ = drive_time_window(
            WindowAggregatePlan, spec, events, aggs, grouped=True
        )
        assert_rows_close(r1, r2, key_columns=2)


class TestPaneTable:
    def test_new_key_below_the_top_pane_keeps_buffered_panes(self):
        """Regression: a new group key arriving late (below the highest
        filled pane) grew the table to the late tuple's pane and lost
        the panes above it."""
        events = [(50.0, 1.0, 1), (10.0, 2.0, 2), (120.0, 3.0, 3),
                  (101.0, 4.0, 4), (5.0, 1.0, 5), (102.0, 1.0, 6),
                  (200.0, 1.0, 1)]
        spec = WindowSpec(WindowMode.TIME, 100.0, 1.0)
        aggs = ("sum", "count")
        r1, _ = drive_time_window(
            ReEvalWindowAggregatePlan, spec, events, aggs, grouped=True
        )
        r2, _ = drive_time_window(
            WindowAggregatePlan, spec, events, aggs, grouped=True
        )
        assert r2 and r1 == r2

    def test_sums_do_not_drift(self):
        """100k values near 1e12 and 1e-3: a firing folds the panes of
        its windows, or takes differences of prefix sums restarted at
        its first live pane, so no running total carries rounding error
        from one firing to the next."""
        rng = np.random.default_rng(5)
        n = 100_000
        values = np.where(
            rng.random(n) < 0.5,
            1e12 + rng.uniform(-1e3, 1e3, n),
            rng.uniform(0, 2e-3, n),
        ).tolist()
        aggs = ["sum", "avg"]
        for size, slide in (
            (1_000, 10),  # ~200 windows of 100 panes a firing: prefix sums
            (1_000, 500),  # windows of 2 panes: each folded on its own
        ):
            spec = WindowSpec(WindowMode.COUNT, size, slide)
            r1, _ = drive_count_window(
                ReEvalWindowAggregatePlan, spec, values, 50, aggs
            )
            r2, plan = drive_count_window(
                WindowAggregatePlan, spec, values, 50, aggs
            )
            assert len(r2) == (n - size) // slide + 1
            assert plan.values_processed == n
            for a, b in zip(r1, r2):
                assert a[0] == b[0]
                for x, y in zip(a[1:], b[1:]):
                    assert math.isclose(x, y, rel_tol=1e-9)

    @pytest.mark.parametrize("chunks", [17, 1], ids=["one-window", "catch-up"])
    def test_bigint_windows_that_fit_are_exact(self, chunks):
        """Windows of 8 tuples of 2**59 sum to 2**62.  One tuple per
        firing folds each window's panes; one firing of all 17 closes
        10 windows by differences of a prefix sum that passes 2**63 and
        wraps: each window's own sum fits, so it is exact."""
        spec = WindowSpec(WindowMode.COUNT, 8, 1)
        rows, _ = drive_count_window(
            WindowAggregatePlan, spec, [2**59] * 17, chunks, ["sum", "avg"],
            value_atom=AtomType.LNG,
        )
        assert rows == [(k, 2**62, 2.0**59) for k in range(10)]

    @pytest.mark.parametrize("chunks", [60, 1], ids=["one-window", "catch-up"])
    def test_a_bigint_window_past_int64_refuses_its_sum(self, chunks):
        """Panes of 4 tuples of 2**58 sum to 2**60 and fit; a window of
        8 panes sums to 2**63, past int64, by either fold.  Its sum is
        refused; its average divides the exact sum."""
        spec = WindowSpec(WindowMode.COUNT, 32, 4)
        values = [2**58] * 60
        with pytest.raises(AggregateOverflowError):
            drive_count_window(
                WindowAggregatePlan, spec, values, chunks, ["sum"],
                value_atom=AtomType.LNG,
            )
        rows, _ = drive_count_window(
            WindowAggregatePlan, spec, values, chunks, ["avg"],
            value_atom=AtomType.LNG,
        )
        assert rows == [(k, 2.0**58) for k in range(8)]

    def test_state_round_trips_without_pickle(self):
        spec = WindowSpec(WindowMode.COUNT, 6, 2)
        values = [float(i % 5) for i in range(23)]
        groups = [i % 3 if i % 4 else None for i in range(23)]
        _, plan = drive_count_window(
            WindowAggregatePlan, spec, values, 3, ["sum", "max"], groups,
            AtomType.INT,
        )
        blob = plan.export_state()
        frames, torn = frames_with_tail(blob)  # serde frames, not pickle
        assert not torn and len(frames) == 4
        twin = WindowAggregatePlan(
            "w_in", "v", ["sum", "max"], spec, "w_out",
            group_column="g", group_atom=AtomType.INT,
        )
        twin.import_state(blob)
        assert twin.export_state() == blob
        assert twin.next_window == plan.next_window
        assert twin._map._cells == plan._map._cells

    def test_tampered_state_is_rejected(self):
        spec = WindowSpec(WindowMode.COUNT, 4, 2)
        _, plan = drive_count_window(
            WindowAggregatePlan, spec, [1.0] * 9, 2, ["sum"]
        )
        blob = bytearray(plan.export_state())
        fresh = WindowAggregatePlan("w_in", "v", ["sum"], spec, "w_out")
        for tampered in (
            bytes(blob[:-1]),  # torn tail
            bytes(blob[:20]) + bytes([blob[20] ^ 0xFF]) + bytes(blob[21:]),
            None,
        ):
            with pytest.raises(DataCellError):
                fresh.import_state(tampered)
        # a well-formed blob of another format version is refused too
        frames, _ = frames_with_tail(bytes(blob))
        header = decode_column(AtomType.LNG, frames[0])
        header[0] = 99
        frames[0] = encode_column(AtomType.LNG, header)
        with pytest.raises(DataCellError, match="version"):
            fresh.import_state(b"".join(pack_frame(f) for f in frames))

    def test_integral_state_round_trips_exactly(self):
        """A BIGINT partial sum past 2**53 is checkpointed as LNG: the
        restored plan closes the window with the exact sum."""
        spec = WindowSpec(WindowMode.COUNT, 4)
        values = [2**53 + 1, 2, 2**60 + 3]
        _, plan = drive_count_window(
            WindowAggregatePlan, spec, values, 1, ["sum", "max"],
            value_atom=AtomType.LNG,
        )
        twin = WindowAggregatePlan(
            "w_in", "v", ["sum", "max"], spec, "w_out",
            value_atom=AtomType.LNG,
        )
        twin.import_state(plan.export_state())
        assert twin.export_state() == plan.export_state()
        clock = LogicalClock()
        inp = Basket("w_in", [("v", AtomType.LNG)], clock)
        out = Basket("w_out", twin.output_schema(), clock)
        factory = Factory(
            "w", twin, [InputBinding(inp, ConsumeMode.ALL)], [out]
        )
        inp.insert_rows([(5,)])
        factory.activate()
        assert [r[:-1] for r in out.rows()] == [
            (0, sum(values) + 5, 2**60 + 3)
        ]

    def test_version_1_state_restores_only_a_float_table(self):
        """Version 1 wrote every pane table as float64.  A DOUBLE plan
        reads it as its own table and answers as before; an integral
        plan refuses it rather than decode float partials as LNG."""
        spec = WindowSpec(WindowMode.COUNT, 6, 2)
        values = [float(i % 5) for i in range(23)]
        _, plan = drive_count_window(
            WindowAggregatePlan, spec, values, 3, AGGS
        )
        frames, _ = frames_with_tail(plan.export_state())
        header = decode_column(AtomType.LNG, frames[0])
        header[0] = 1
        frames[0] = encode_column(AtomType.LNG, header)
        v1 = b"".join(pack_frame(f) for f in frames)
        twin = WindowAggregatePlan("w_in", "v", AGGS, spec, "w_out")
        twin.import_state(v1)
        assert twin.export_state() == plan.export_state()

        ints = [i % 5 for i in range(23)]
        _, lng = drive_count_window(
            WindowAggregatePlan, spec, ints, 3, AGGS,
            value_atom=AtomType.LNG,
        )
        frames, _ = frames_with_tail(lng.export_state())
        table = decode_column(AtomType.LNG, frames[2])
        frames[0] = encode_column(AtomType.LNG, header)
        frames[2] = encode_column(AtomType.DBL, table.astype(np.float64))
        fresh = WindowAggregatePlan(
            "w_in", "v", AGGS, spec, "w_out", value_atom=AtomType.LNG
        )
        with pytest.raises(DataCellError, match="version"):
            fresh.import_state(b"".join(pack_frame(f) for f in frames))
