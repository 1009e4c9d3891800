"""Unit tests for factories: Algorithm 1 semantics and consume modes."""

import numpy as np
import pytest

from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import (
    CallablePlan,
    ConsumeMode,
    Factory,
    InputBinding,
    PlanOutput,
)
from repro.errors import DataCellError
from repro.kernel.bat import bat_from_values
from repro.kernel.join import projection
from repro.kernel.mal import ResultSet
from repro.kernel.select import range_select
from repro.kernel.types import AtomType


@pytest.fixture
def clock():
    return LogicalClock()


def make_baskets(clock):
    inp = Basket("src", [("v", AtomType.INT)], clock)
    out = Basket("dst", [("v", AtomType.INT)], clock)
    return inp, out


def select_plan(low, high, out_name="dst"):
    def plan(snaps):
        snap = snaps["src"]
        col = snap.column("v")
        cands = range_select(col, low, high)
        return ResultSet(["v"], [projection(cands, col)])

    return CallablePlan(plan, default_output=out_name)


class TestActivation:
    def test_basic_select_flow(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", select_plan(10, 20), [inp], [out])
        inp.insert_rows([(5,), (15,), (25,)])
        result = f.activate()
        assert result.fired
        assert result.tuples_in == 3
        assert result.tuples_out == 1
        assert [r[0] for r in out.rows()] == [15]
        assert inp.count == 0, "ALL mode empties the input (Algorithm 1)"

    def test_state_saved_between_calls(self, clock):
        """The factory is a co-routine: plan state persists."""
        inp, out = make_baskets(clock)
        seen = []

        def plan(snaps):
            seen.append(snaps["src"].count)
            return None

        f = Factory("q", CallablePlan(plan), [inp], [out])
        inp.insert_rows([(1,)])
        f.activate()
        inp.insert_rows([(2,), (3,)])
        f.activate()
        assert seen == [1, 2]
        assert f.activations == 2

    def test_needs_input(self, clock):
        _, out = make_baskets(clock)
        with pytest.raises(DataCellError):
            Factory("q", select_plan(0, 1), [], [out])

    def test_unknown_output_rejected(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", select_plan(0, 100, out_name="nowhere"), [inp], [out])
        inp.insert_rows([(1,)])
        with pytest.raises(DataCellError):
            f.activate()

    def test_a_failed_plan_names_its_first_error_afterwards(self, clock):
        """The co-routine dies with the plan's error; each later
        activation raises a DataCellError naming the query and that
        error, not a bare StopIteration."""
        inp, out = make_baskets(clock)

        def plan(snaps):
            raise ValueError("bad value")

        f = Factory("q", CallablePlan(plan), [inp], [out])
        inp.insert_rows([(1,)])
        with pytest.raises(ValueError, match="bad value"):
            f.activate()
        for _ in range(2):
            with pytest.raises(DataCellError, match=(
                "query 'q' stopped at an earlier firing: "
                "ValueError: bad value"
            )) as raised:
                f.activate()
            assert isinstance(raised.value.__cause__, ValueError)

    def test_statistics_accumulate(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", select_plan(0, 100), [inp], [out])
        for batch in ([(1,)], [(2,), (3,)]):
            inp.insert_rows(batch)
            f.activate()
        assert f.total_in == 3
        assert f.total_out == 3


class TestEnablement:
    def test_petri_net_firing_condition(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", select_plan(0, 100), [inp], [out])
        assert not f.enabled()
        inp.insert_rows([(1,)])
        assert f.enabled()

    def test_min_tuples_threshold(self, clock):
        inp, out = make_baskets(clock)
        f = Factory(
            "q", select_plan(0, 100),
            [InputBinding(inp, min_tuples=3)], [out],
        )
        inp.insert_rows([(1,), (2,)])
        assert not f.enabled()
        inp.insert_rows([(3,)])
        assert f.enabled()

    def test_basket_min_count_respected(self, clock):
        inp, out = make_baskets(clock)
        inp.min_count = 5
        f = Factory("q", select_plan(0, 100), [inp], [out])
        inp.insert_rows([(1,)] * 4)
        assert not f.enabled()
        inp.insert_rows([(1,)])
        assert f.enabled()

    def test_multi_input_needs_all(self, clock):
        """All inputs must have tuples (paper §2.4)."""
        a = Basket("a", [("v", AtomType.INT)], clock)
        b = Basket("b", [("v", AtomType.INT)], clock)
        out = Basket("o", [("v", AtomType.INT)], clock)
        f = Factory("j", CallablePlan(lambda s: None), [a, b], [out])
        a.insert_rows([(1,)])
        assert not f.enabled()
        b.insert_rows([(2,)])
        assert f.enabled()


class TestConsumeModes:
    def test_plan_mode_consumes_referenced_only(self, clock):
        """Basket-expression semantics: only referenced tuples removed."""
        inp, out = make_baskets(clock)

        def plan(snaps):
            snap = snaps["src"]
            col = snap.column("v")
            cands = range_select(col, 10, 20)
            return PlanOutput(
                results={
                    "dst": ResultSet(["v"], [projection(cands, col)])
                },
                consumed={"src": cands},
            )

        f = Factory(
            "q", CallablePlan(plan),
            [InputBinding(inp, ConsumeMode.PLAN)], [out],
        )
        inp.insert_rows([(5,), (15,), (25,)])
        f.activate()
        assert sorted(r[0] for r in inp.rows()) == [5, 25]
        assert [r[0] for r in out.rows()] == [15]

    def test_plan_mode_does_not_refire_on_leftovers(self, clock):
        inp, out = make_baskets(clock)
        f = Factory(
            "q",
            CallablePlan(lambda s: PlanOutput(consumed={"src": np.array([])})),
            [InputBinding(inp, ConsumeMode.PLAN)],
            [out],
        )
        inp.insert_rows([(5,)])
        assert f.enabled()
        f.activate()
        assert inp.count == 1
        assert not f.enabled(), "no new tuples -> no refiring"
        inp.insert_rows([(6,)])
        assert f.enabled()

    def test_peek_mode_keeps_everything(self, clock):
        inp, out = make_baskets(clock)
        f = Factory(
            "q", select_plan(0, 100),
            [InputBinding(inp, ConsumeMode.PEEK)], [out],
        )
        inp.insert_rows([(1,)])
        f.activate()
        assert inp.count == 1

    def test_shared_mode_advances_cursor(self, clock):
        inp, out = make_baskets(clock)
        f1 = Factory(
            "q1", select_plan(0, 100),
            [InputBinding(inp, ConsumeMode.SHARED)], [out],
        )
        f2 = Factory(
            "q2", select_plan(0, 100),
            [InputBinding(inp, ConsumeMode.SHARED)], [out],
        )
        inp.insert_rows([(1,), (2,)])
        f1.activate()
        assert inp.count == 2, "q2 has not seen the tuples yet"
        f2.activate()
        assert inp.count == 0, "all shared readers done -> gc"
        assert not f1.enabled() and not f2.enabled()

    def test_shared_mode_sees_only_new(self, clock):
        inp, out = make_baskets(clock)
        f1 = Factory(
            "q1", select_plan(0, 100),
            [InputBinding(inp, ConsumeMode.SHARED)], [out],
        )
        inp.insert_rows([(1,)])
        r = f1.activate()
        assert r.tuples_in == 1
        inp.insert_rows([(2,)])
        r = f1.activate()
        assert r.tuples_in == 1, "second activation sees only the new tuple"

    def test_close_unregisters_shared_reader(self, clock):
        inp, out = make_baskets(clock)
        f = Factory(
            "q", select_plan(0, 100),
            [InputBinding(inp, ConsumeMode.SHARED)], [out],
        )
        assert inp.readers() == ["q"]
        f.close()
        assert inp.readers() == []


class TestLocking:
    def test_locks_released_after_activation(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", select_plan(0, 100), [inp], [out])
        inp.insert_rows([(1,)])
        f.activate()
        # if locks leaked, this acquire would deadlock (RLock same thread
        # would pass; check via another thread)
        import threading

        acquired = []

        def try_lock():
            acquired.append(inp.lock.acquire(timeout=1))
            if acquired[-1]:
                inp.lock.release()

        t = threading.Thread(target=try_lock)
        t.start()
        t.join()
        assert acquired == [True]

    def test_lock_order_is_name_sorted(self, clock):
        a = Basket("zzz", [("v", AtomType.INT)], clock)
        b = Basket("aaa", [("v", AtomType.INT)], clock)
        f = Factory("q", CallablePlan(lambda s: None), [a], [b])
        order = [bk.name for bk in f._lock_order()]
        assert order == ["aaa", "zzz"]

    def test_shared_input_output_basket_deduped(self, clock):
        a = Basket("loop", [("v", AtomType.INT)], clock)
        f = Factory("q", CallablePlan(lambda s: None), [a], [a])
        assert len(f._lock_order()) == 1


class TestCallablePlan:
    def test_none_result(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", CallablePlan(lambda s: None), [inp], [out])
        inp.insert_rows([(1,)])
        result = f.activate()
        assert result.tuples_out == 0

    def test_dict_result(self, clock):
        inp, out = make_baskets(clock)

        def plan(snaps):
            return {
                "dst": ResultSet(["v"], [bat_from_values(AtomType.INT, [9])])
            }

        f = Factory("q", CallablePlan(plan), [inp], [out])
        inp.insert_rows([(1,)])
        f.activate()
        assert [r[0] for r in out.rows()] == [9]

    def test_bare_resultset_needs_default_output(self, clock):
        inp, out = make_baskets(clock)
        rs = ResultSet(["v"], [bat_from_values(AtomType.INT, [1])])
        f = Factory("q", CallablePlan(lambda s: rs), [inp], [out])
        inp.insert_rows([(1,)])
        with pytest.raises(DataCellError):
            f.activate()

    def test_bad_return_type(self, clock):
        inp, out = make_baskets(clock)
        f = Factory("q", CallablePlan(lambda s: 42), [inp], [out])
        inp.insert_rows([(1,)])
        with pytest.raises(DataCellError):
            f.activate()


class TestSmallArrayAccounting:
    """The factory's queue-wait and origin stamp are computed in python
    over a snapshot's runs; they must agree with the numpy formula over
    the per-row stamps the runs expand to, from any first fresh row."""

    @pytest.mark.parametrize("n", [1, 5, 16, 17, 300])
    def test_python_and_numpy_paths_agree(self, n):
        from repro.core.runs import Runs

        rng = np.random.default_rng(n)
        now = 1000.0
        runs = Runs()
        end = 0
        while end < n:
            end = min(n, end + int(rng.integers(1, 8)))
            # some stamps after now
            runs.append(end, now - float(rng.uniform(-0.5, 2.0)), 0)
        stamps = np.repeat(
            runs.stamps, np.diff([0] + runs.ends)
        )
        assert len(stamps) == n
        assert runs.oldest() == float(stamps.min())
        for first in {0, n // 3, n - 1}:
            expected = float(np.maximum(now - stamps[first:], 0.0).sum())
            assert runs.wait(now, first) == pytest.approx(
                expected, rel=1e-12)
