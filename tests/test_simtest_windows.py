"""Window geometry edge cases through the simulator and the baselines.

Each case runs the engine's window-aggregate factory inside the
simulated scheduler and compares its ordered results with the naive
per-tuple re-evaluation baseline fed the same delivered stream — the
engine's answer must not depend on how activations chop the stream, nor
on the firing order, nor on min-tuples batching thresholds.
"""

import pytest

from repro.simtest import run_window_differential


def assert_windows_agree(streaming, naive):
    assert streaming == naive, f"streaming {streaming} != naive {naive}"


class TestGeometryEdgeCases:
    @pytest.mark.parametrize("policy", ["priority", "random", "inverted"])
    def test_tumbling_slide_equals_size(self, policy):
        streaming, naive, _ = run_window_differential(
            4, 4, list(range(17)), aggregate="sum", seed=1, policy=policy
        )
        assert len(naive) == 4  # 17 tuples: windows close at 4, 8, 12, 16
        assert_windows_agree(streaming, naive)

    @pytest.mark.parametrize("aggregate", ["sum", "count", "avg", "min", "max"])
    def test_size_one_window(self, aggregate):
        streaming, naive, _ = run_window_differential(
            1, 1, [5, 3, 9, 1], aggregate=aggregate, seed=2
        )
        assert len(naive) == 4  # every tuple closes its own window
        assert_windows_agree(streaming, naive)

    def test_overlapping_slide_smaller_than_size(self):
        streaming, naive, _ = run_window_differential(
            5, 2, list(range(23)), aggregate="avg", seed=3, policy="random"
        )
        assert_windows_agree(streaming, naive)

    def test_min_count_above_batch_size(self):
        # the factory's firing threshold exceeds every delivered batch,
        # so no single activation satisfies it — tuples must accumulate
        # across activations and the tail is flushed by the harness
        streaming, naive, _ = run_window_differential(
            5, 2, list(range(29)), seed=4, batch_size=3, min_tuples=9
        )
        assert naive  # the stream closes windows
        assert_windows_agree(streaming, naive)

    def test_empty_activation_stream_shorter_than_window(self):
        streaming, naive, _ = run_window_differential(
            10, 5, [1, 2, 3], seed=5
        )
        assert naive == []  # never enough tuples to close a window
        assert_windows_agree(streaming, naive)

    def test_empty_stream(self):
        streaming, naive, _ = run_window_differential(3, 3, [], seed=6)
        assert streaming == [] and naive == []


class TestWindowsUnderAdversity:
    @pytest.mark.parametrize("seed", range(3))
    def test_windows_with_batch_faults(self, seed):
        streaming, naive, _ = run_window_differential(
            6,
            2,
            list(range(40)),
            aggregate="max",
            seed=seed,
            policy="random",
            batch_size=4,
            batch_fault_rate=0.4,
        )
        assert_windows_agree(streaming, naive)

    def test_plan_matches_reeval_reference(self):
        """The engine's window plan, driven through the simulator, and the
        re-eval reference fed the same stream agree with the naive oracle."""
        from repro.baselines.reeval import ReEvalWindowAggregatePlan
        from repro.core.basket import Basket
        from repro.core.clock import LogicalClock
        from repro.core.factory import Factory, InputBinding
        from repro.core.windows import WindowMode, WindowSpec
        from repro.kernel.types import AtomType

        rows = list(range(31))
        streaming, naive, _ = run_window_differential(7, 3, rows, seed=9)
        clock = LogicalClock()
        inp = Basket("s", [("v", AtomType.INT)], clock)
        plan = ReEvalWindowAggregatePlan(
            "s", "v", ["sum"], WindowSpec(WindowMode.COUNT, 7, 3), "o",
            value_atom=AtomType.INT,
        )
        out = Basket("o", plan.output_schema(), clock)
        factory = Factory("ref", plan, [InputBinding(inp)], [out])
        inp.insert_rows([(v,) for v in rows])
        factory.activate()
        assert streaming == naive == [r[1] for r in out.rows()]

    def test_episode_reproducible(self):
        kwargs = dict(
            size=5,
            slide=2,
            rows=list(range(25)),
            seed=11,
            policy="random",
            batch_fault_rate=0.3,
        )
        _, _, first = run_window_differential(**kwargs)
        _, _, second = run_window_differential(**kwargs)
        assert first.firings == second.firings
