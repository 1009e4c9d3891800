"""The kill-and-restart differential gate.

Seeded episodes (the same generator the CI job runs) must all pass —
recovered output byte-identical to the uninterrupted run, for a view its
integral — for plain continuous queries, aggregate and join views and
COUNT-window aggregates alike, across all fsync
policies and checkpoint cadences.  A deliberately planted
duplicate-delivery bug (high-water suppression disabled) must be
*caught*, proving the differential has teeth.
"""

import pytest

from repro.core.emitter import Emitter
from repro.kernel.types import INT_NIL, AtomType
from repro.simtest.crash import (
    CrashSpec,
    _build,
    check_crash_episode,
    crash_episode_spec,
)
from repro.simtest.oracle import JOIN_CASE, VIEW_CASES
from repro.simtest.policies import policy_names

# 4 chunks x 25 = 100 seeded episodes, the acceptance floor; chunking
# keeps per-test wall time visible and failures localized
CHUNK = 25


@pytest.mark.parametrize("chunk", range(4))
def test_seeded_crash_episodes_recover_byte_identically(chunk):
    for index in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        spec = crash_episode_spec(index, base_seed=0)
        result = check_crash_episode(spec)
        assert result.ok, result.explain()


def test_both_query_shapes_and_all_fsync_policies_are_exercised():
    specs = [crash_episode_spec(i, base_seed=0) for i in range(100)]
    cases = {s.case for s in specs}
    assert "window" in cases
    assert len(cases) >= 4
    # every third episode registers a view: an aggregate or the join
    assert {s.case for s in specs[2::3]} == set(VIEW_CASES)
    assert {s.fsync for s in specs} == {"interval", "off", "always"}
    assert any(s.checkpoint_every for s in specs)
    assert any(s.checkpoint_every is None for s in specs)
    # telemetry sampling must be exercised both on and off: the sys.*
    # streams are exempt from WAL and checkpoints, so recovery with
    # sampling enabled is its own failure mode
    assert {s.sampling for s in specs} == {True, False}
    # every other window episode is grouped, over a varchar or int key
    assert {s.window_group for s in specs if s.case == "window"} == {
        None, AtomType.STR, AtomType.INT,
    }


def test_view_episodes_meet_every_policy_and_fsync_mode():
    # a view episode draws its policy and fsync mode from its turn
    # through the view cases, not from the episode index, which would
    # run every view under one fsync mode and each view under one policy
    specs = [crash_episode_spec(i, base_seed=0) for i in range(220)]
    for case in VIEW_CASES:
        views = [s for s in specs if s.case == case]
        assert {s.fsync for s in views} == {"interval", "off", "always"}, case
    joins = [s for s in specs if s.case == JOIN_CASE.name]
    assert {s.policy for s in joins} == set(policy_names())


def test_seeded_generator_yields_a_join_view():
    # the join's two streams arrive together: recovery resumes each at
    # its own basket's total_in, and the view's integral still matches
    joins = [
        spec for spec in (crash_episode_spec(i, base_seed=0) for i in range(24))
        if spec.case == JOIN_CASE.name
    ]
    assert joins and all(spec.rows and spec.right_rows for spec in joins)
    result = check_crash_episode(joins[0])
    assert result.ok, result.explain()
    assert result.crashed and result.reference


def test_explicit_mid_stream_crash_with_checkpoint():
    spec = CrashSpec(
        seed=42,
        rows=tuple((v, v % 7) for v in range(30)),
        case="passthrough",
        policy="priority",
        batch_size=4,
        crash_after=9,
        checkpoint_every=3,
        fsync="always",
    )
    result = check_crash_episode(spec)
    assert result.crashed
    assert result.ok, result.explain()
    # the crash landed mid-stream: both phases must have delivered rows
    assert result.pre_crash
    assert result.post_recovery


def test_window_episode_recovers_partial_window_state():
    spec = CrashSpec(
        seed=43,
        rows=tuple((v,) for v in range(25)),
        case="window",
        window=(4, 2),
        window_aggregate="sum",
        policy="round-robin",
        batch_size=3,
        crash_after=8,
        checkpoint_every=4,
    )
    result = check_crash_episode(spec)
    assert result.crashed
    assert result.ok, result.explain()


@pytest.mark.parametrize("atom", [AtomType.STR, AtomType.INT])
def test_grouped_window_episode_recovers_its_key_map(atom):
    """The checkpoint carries the group keys; after recovery the known
    keys, the NIL key among them, map to their old pane-table columns."""
    nil = None if atom is AtomType.STR else int(INT_NIL)
    domain = ["a", "b", "c"] if atom is AtomType.STR else [4, 5, 6]
    spec = CrashSpec(
        seed=46,
        rows=tuple(
            (v, nil if v % 5 == 0 else domain[v // 7 % 3]) for v in range(40)
        ),
        case="window",
        window=(6, 3),
        window_aggregate="sum",
        window_group=atom,
        policy="round-robin",
        batch_size=3,
        crash_after=14,
        checkpoint_every=4,
    )
    result = check_crash_episode(spec)
    assert result.crashed
    assert result.ok, result.explain()
    assert result.pre_crash and result.post_recovery
    # rows are (window_id, total, k): the harness lists the key last
    assert None in {row[2] for row in result.post_recovery}


@pytest.mark.parametrize("atom", [AtomType.STR, AtomType.INT])
def test_sql_window_with_reordered_select_list_recovers(atom):
    """The window episodes register SQL text, so recovery re-lowers it:
    an aliased aggregate listed before its key survives kill-and-restart
    byte for byte, NIL keys included."""
    nil = None if atom is AtomType.STR else int(INT_NIL)
    domain = ["x", "y"] if atom is AtomType.STR else [1, 2]
    spec = CrashSpec(
        seed=47,
        rows=tuple(
            (v, nil if v % 4 == 0 else domain[v // 3 % 2]) for v in range(30)
        ),
        case="window",
        window=(4, 2),
        window_aggregate="sum",
        window_group=atom,
        policy="random",
        batch_size=2,
        crash_after=11,
        checkpoint_every=3,
        fsync="always",
    )
    _, _, handle = _build(spec, None)
    assert handle.sql == (
        "select sum(x.v) as total, x.k from [select * from feed] as x "
        "group by x.k window 4 slide 2"
    )
    assert [c.name for c in handle.output_basket.schema.columns][:3] == [
        "window_id", "total", "k",
    ]
    result = check_crash_episode(spec)
    assert result.crashed
    assert result.ok, result.explain()
    assert result.pre_crash and result.post_recovery
    assert None in {row[2] for row in result.reference}


def test_window_episodes_register_sql():
    """Window episodes take the users' route: SQL text, lowered."""
    for index in range(40):
        spec = crash_episode_spec(index, base_seed=0)
        if spec.case == "window":
            _, _, handle = _build(spec, None)
            assert "window" in handle.sql


def test_crash_with_telemetry_sampling_is_byte_identical():
    """Sampling fills sys.* baskets that never touch the WAL or the
    checkpoints: user-visible output must be unchanged by their presence
    across a kill-and-restart."""
    spec = CrashSpec(
        seed=45,
        rows=tuple((v, v % 5) for v in range(30)),
        case="passthrough",
        policy="priority",
        batch_size=4,
        crash_after=9,
        checkpoint_every=3,
        fsync="always",
        sampling=True,
    )
    result = check_crash_episode(spec)
    assert result.crashed
    assert result.ok, result.explain()
    assert result.pre_crash
    assert result.post_recovery


def test_planted_duplicate_delivery_bug_is_caught(monkeypatch):
    """Disable high-water suppression: replayed rows re-deliver, and the
    differential must flag the duplicates."""
    original = Emitter.activate

    def no_suppression(self):
        self.high_water_seq = -1  # forget everything ever delivered
        return original(self)

    monkeypatch.setattr(Emitter, "activate", no_suppression)
    spec = CrashSpec(
        seed=44,
        rows=tuple((v + 11, 0) for v in range(20)),  # all pass the filter
        case="filter",
        policy="priority",
        batch_size=2,
        crash_after=12,
        checkpoint_every=None,
        fsync="off",
    )
    result = check_crash_episode(spec)
    assert result.crashed
    assert not result.ok
    combined = result.pre_crash + result.post_recovery
    assert len(combined) > len(result.reference)  # duplicates, not loss
