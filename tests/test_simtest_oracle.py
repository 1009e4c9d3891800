"""The differential oracle and its shrinker.

Two halves: correct pipelines must pass the streaming ≡ one-shot check
under every policy, batching and fault mix (no false positives); and a
deliberately planted consumption bug must be caught *and* shrunk to a
repro of at most 10 input tuples (no false negatives, and failures come
back actionable).  The planted bug flips the query's input binding to
PEEK, which re-emits unconsumed tuples — exactly the class of
consumption-semantics mistake the harness exists to catch.  A view
gets the same two halves, with planted bugs that drop its retractions
or a join's dL ⋈ dR pairs, and the seeded ``repro.simtest.run`` schedule is checked
to reach every kind of episode.
"""

import random
from collections import Counter

import pytest

from repro.core.basket import TIME_COLUMN
from repro.core.factory import ConsumeMode
from repro.core.windows import WindowAggregatePlan
from repro.incremental import IncrementalJoin, ZSet
from repro.kernel.bat import BAT, bat_from_values
from repro.kernel.mal import ResultSet
from repro.simtest import (
    ORACLE_CASES,
    VIEW_CASES,
    EpisodeSpec,
    check_episode,
    render_repro,
    run_time_window_differential,
    shrink_episode,
)
from repro.simtest import run as simtest_run
from repro.simtest.oracle import VIEW


def random_spec(seed, **overrides):
    rng = random.Random(f"oracle-test:{seed}")
    fields = dict(
        seed=seed,
        rows=tuple(
            (rng.randint(-5, 30), rng.randint(0, 10))
            for _ in range(rng.randint(4, 50))
        ),
        case=rng.choice(sorted(ORACLE_CASES)),
        policy=rng.choice(
            ["priority", "round-robin", "random", "inverted", "starve:tap"]
        ),
        batch_size=rng.choice((1, 2, 3, 5, 8)),
    )
    fields.update(overrides)
    return EpisodeSpec(**fields)


class TestDifferentialHolds:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_clean_episodes(self, seed):
        result = check_episode(random_spec(seed))
        assert result.ok, result.explain()

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_randomized_faulted_episodes(self, seed):
        result = check_episode(
            random_spec(seed, batch_fault_rate=0.3, exception_rate=0.1)
        )
        assert result.ok, result.explain()

    def test_empty_stream(self):
        result = check_episode(EpisodeSpec(seed=0, rows=()))
        assert result.ok
        assert not result.streaming and not result.oneshot

    def test_faults_change_delivery_not_equivalence(self):
        spec = random_spec(99, batch_fault_rate=0.8, case="passthrough")
        clean = check_episode(
            EpisodeSpec(
                seed=spec.seed, rows=spec.rows, case="passthrough"
            )
        )
        faulted = check_episode(spec)
        assert clean.ok and faulted.ok
        # seed 99's heavy fault mix does drop/duplicate something, so the
        # two runs see genuinely different delivered streams
        assert faulted.streaming != clean.streaming


def peek_bug(handle):
    handle.factory.inputs[0].mode = ConsumeMode.PEEK


class TestPlantedBugRegression:
    BASE = None  # built once; shrinking re-checks dozens of candidates

    @classmethod
    def base_spec(cls):
        if cls.BASE is None:
            cls.BASE = random_spec(
                5, case="filter", policy="random", batch_size=3
            )
        return cls.BASE

    def test_peek_bug_is_caught(self):
        result = check_episode(self.base_spec(), bug=peek_bug)
        assert not result.ok
        assert result.extra  # PEEK re-emits: streaming has surplus rows

    def test_peek_bug_shrinks_to_at_most_ten_tuples(self):
        shrunk, attempts = shrink_episode(self.base_spec(), bug=peek_bug)
        assert len(shrunk.rows) <= 10
        assert attempts <= 400
        # schedule simplified away too: no faults, deterministic policy
        assert shrunk.policy == "priority"
        assert shrunk.batch_fault_rate == 0.0
        # and the minimized spec still reproduces the failure
        assert not check_episode(shrunk, bug=peek_bug).ok


class TestRepro:
    def test_render_repro_round_trips(self):
        spec = random_spec(7, batch_fault_rate=0.25)
        rebuilt = eval(  # the repro line is designed to be pasted back
            render_repro(spec), {"EpisodeSpec": EpisodeSpec}
        )
        assert EpisodeSpec(**{**rebuilt.__dict__, "rows": tuple(rebuilt.rows)}) == spec

    def test_explain_names_the_diff(self):
        result = check_episode(self.failing_spec(), bug=peek_bug)
        text = result.explain()
        assert "EpisodeSpec" in text and "extra=" in text

    @staticmethod
    def failing_spec():
        return EpisodeSpec(
            seed=5, rows=((11, 7), (29, 4), (21, 8), (19, 0))
        )


# ----------------------------------------------------------------------
# views, TIME windows and the seeded schedule of ``simtest.run``
# ----------------------------------------------------------------------
def seeded_specs(kind, count):
    """The first ``count`` episodes of ``kind`` in the seed-0 schedule."""
    indices = [
        i for i in range(400) if simtest_run.kind_name(i) == kind
    ][:count]
    return [simtest_run._episode_spec(i, 0) for i in indices]


class TestSeededKinds:
    @pytest.mark.parametrize("spec", seeded_specs("aggregate", 6),
                             ids=lambda s: f"{s.case}-{s.policy}")
    def test_aggregate_view_episodes(self, spec):
        result = check_episode(spec)
        assert result.ok, result.explain()
        assert result.oneshot  # the episode had something to compare

    @pytest.mark.parametrize("spec", seeded_specs("join", 5),
                             ids=lambda s: f"{s.policy}-{s.seed}")
    def test_join_view_episodes(self, spec):
        result = check_episode(spec)
        assert result.ok, result.explain()

    def test_time_window_episodes(self):
        indices = [
            i for i in range(60) if simtest_run.kind_name(i) == "time_window"
        ]
        assert len(indices) >= 4
        for index in indices:
            assert simtest_run._run_window_episode(index, 0) is None

    def test_failing_window_episode_prints_its_rows_shrunk(
        self, monkeypatch
    ):
        # a planted watermark bug: the plan takes the batch's last stamp
        # for the watermark, not the largest seen, so out of order a
        # window closes late or never
        ingest = WindowAggregatePlan._ingest

        def last_stamp(self, snap):
            ingest(self, snap)
            self._watermark = float(snap.column(TIME_COLUMN).tail[-1])

        monkeypatch.setattr(WindowAggregatePlan, "_ingest", last_stamp)
        function, call = simtest_run._window_call(39, 0)
        assert function is run_time_window_differential and call["disorder"]
        message = simtest_run._run_window_episode(39, 0)
        assert message is not None
        # the printed call fails on at most a quarter of the rows, and
        # passes once the bug is gone
        paste_back = message.split("): ", 1)[0] + ")"
        rows = eval(paste_back.replace(function.__name__, "dict", 1))["rows"]
        assert len(rows) <= len(call["rows"]) // 4
        plan, reference = eval(paste_back, {function.__name__: function})
        assert plan != reference
        monkeypatch.undo()
        plan, reference = eval(paste_back, {function.__name__: function})
        assert plan == reference

    def test_schedule_reaches_every_kind_and_case(self):
        kinds = Counter(simtest_run.kind_name(i) for i in range(400))
        assert kinds == {
            "linear": 160, "aggregate": 40, "join": 40,
            "count_window": 80, "time_window": 80,
        }
        cases = {
            simtest_run._episode_spec(i, 0).case
            for i in range(400)
            if simtest_run.kind_name(i) in ("linear", "aggregate", "join")
        }
        assert cases == set(ORACLE_CASES) | set(VIEW_CASES)

    def test_a_join_firing_sees_both_deltas(self, monkeypatch):
        """The two streams arrive at the same instants; with the view's
        factory starved, a firing folds both sides' deltas — the only
        firings where the ``dL ⋈ dR`` term is not empty."""
        both = []
        step_both = IncrementalJoin.step_both

        def spy(self, dleft, dright):
            both.append(bool(dleft) and bool(dright))
            return step_both(self, dleft, dright)

        monkeypatch.setattr(IncrementalJoin, "step_both", spy)
        spec = next(
            s for s in seeded_specs("join", 40) if s.policy == "starve:v"
        )
        assert check_episode(spec).ok
        assert any(both)


def retraction_bug(handle):
    """The view forgets to retract a group's previous row."""
    plan = handle.factory.plan
    result = plan._aggregate_result

    def forgetful(columns):
        out = result(columns)
        keep = out.bats[-1].tail > 0
        return ResultSet(
            out.names, [BAT.adopt(b.atom, b.tail[keep]) for b in out.bats]
        )

    plan._aggregate_result = forgetful


def late_left_fold(self, dleft, dright):
    """``IncrementalJoin.step_both`` with dL folded into the left state
    after the dR probe: a firing that sees both deltas loses dL ⋈ dR."""
    out = ZSet()
    for delta, key, state in (
        (dleft, self.left_key, self.right_state),
        (dright, self.right_key, self.left_state),
    ):
        for row, weight in delta.items():
            for other, other_weight in state.get(row[key], ZSet()).items():
                pair = (row, other) if delta is dleft else (other, row)
                out.add(self._pair(*pair), weight * other_weight)
    self._fold(self.left_state, self.left_key, dleft)
    self._fold(self.right_state, self.right_key, dright)
    return out


class TestPlantedViewBug:
    SPEC = EpisodeSpec(
        seed=3, case="agg_grouped", policy="random", batch_size=2,
        batch_fault_rate=0.3,
        rows=tuple((i % 4, i % 7) for i in range(30)),
    )

    def test_retraction_bug_is_caught_and_shrunk(self):
        result = check_episode(self.SPEC, bug=retraction_bug)
        assert not result.ok
        assert result.extra  # the stale group rows are never retracted
        shrunk, attempts = shrink_episode(self.SPEC, bug=retraction_bug)
        assert len(shrunk.rows) <= 3
        assert shrunk.policy == "priority"
        assert shrunk.batch_fault_rate == 0.0
        assert not check_episode(shrunk, bug=retraction_bug).ok
        assert check_episode(shrunk).ok

    def test_a_wrong_row_retracted_later_is_caught(self):
        """The first firing inserts a row no query answers and the
        second retracts it: the view ends right but was wrong between
        the two, which only a check at every quiescent point sees."""
        def transient_bug(handle):
            plan = handle.factory.plan
            result = plan._aggregate_result
            firings = []

            def buggy(columns):
                firings.append(columns)
                out = result(columns)
                if len(firings) > 2:
                    return out
                row = (99, 0, 0, 0, 0, (1, -1)[len(firings) - 1])
                return ResultSet(out.names, [
                    bat_from_values(b.atom, b.python_list() + [value])
                    for b, value in zip(out.bats, row)
                ])

            plan._aggregate_result = buggy

        spec = EpisodeSpec(
            seed=3, case="agg_grouped", policy="priority", batch_size=2,
            rows=((1, 2), (3, 4), (1, 5)),
        )
        result = check_episode(spec, bug=transient_bug)
        assert not result.ok
        assert result.extra == {(99, 0, 0, 0, 0): 1}

    def test_join_bug_shrinks_to_one_firing_of_both_deltas(
        self, monkeypatch
    ):
        # the shrinker starves the view's factory, so both sides' rows
        # of an instant meet in one firing
        monkeypatch.setattr(IncrementalJoin, "step_both", late_left_fold)
        spec = seeded_specs("join", 6)[5]
        assert spec.policy == "round-robin"
        assert not check_episode(spec).ok
        shrunk, _ = shrink_episode(spec)
        assert len(shrunk.rows) <= 2 and len(shrunk.right_rows) <= 2
        assert shrunk.policy == f"starve:{VIEW}"
        assert not check_episode(shrunk).ok
        monkeypatch.undo()
        assert check_episode(shrunk).ok

    def test_join_repro_round_trips(self):
        spec = seeded_specs("join", 1)[0]
        rebuilt = eval(render_repro(spec), {"EpisodeSpec": EpisodeSpec})
        assert rebuilt.right_rows and check_episode(rebuilt).ok
