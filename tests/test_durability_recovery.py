"""Crash recovery end to end: checkpoint + WAL replay, exactly-once.

Each test builds an engine with durability, kills it (``abandon`` — no
final fsync, exactly what a dead process leaves), rebuilds the same
topology, recovers, and checks the delivered stream: rows delivered
before the crash are never re-delivered (the emitter high-water mark),
rows in flight at the crash are delivered after recovery (WAL replay),
and nothing is lost or invented.
"""

import gc
import time
import warnings

import pytest

from repro.core.engine import DataCell
from repro.durability import DurabilityConfig
from repro.durability.wal import list_segments
from repro.errors import DataCellError
from repro.kernel.types import AtomType

SQL = "select x.a, x.b from [select * from feed where feed.a > 1] as x"


def _build(tmp_path, fsync="interval"):
    cell = DataCell(
        durability=DurabilityConfig(directory=tmp_path, fsync=fsync)
    )
    cell.create_basket("feed", [("a", AtomType.INT), ("b", AtomType.INT)])
    handle = cell.submit_continuous(SQL, name="q")
    return cell, handle


def test_wal_only_recovery_delivers_in_flight_rows(tmp_path):
    cell, handle = _build(tmp_path)
    cell.basket("feed").insert_rows([(1, 10), (2, 20)])
    cell.run_until_quiescent()
    assert handle.fetch() == [(2, 20)]
    cell.basket("feed").insert_rows([(3, 30), (4, 40)])
    cell.durability.abandon()  # crash before the scheduler ran

    cell2, handle2 = _build(tmp_path)
    report = cell2.recover()
    assert report.checkpoint_id is None
    assert report.rows_replayed == 4
    cell2.run_until_quiescent()
    # (2,20) was delivered pre-crash: suppressed. (3,30),(4,40) were not.
    assert handle2.fetch() == [(3, 30), (4, 40)]
    cell2.durability.close()


def test_checkpoint_plus_wal_suffix(tmp_path):
    cell, handle = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1), (3, 1)])
    cell.run_until_quiescent()
    assert len(handle.fetch()) == 2
    cell.checkpoint()
    cell.basket("feed").insert_rows([(4, 1)])  # post-checkpoint suffix
    cell.durability.abandon()

    cell2, handle2 = _build(tmp_path)
    report = cell2.recover()
    assert report.checkpoint_id == 1
    assert report.rows_replayed == 1  # only the suffix replays
    cell2.run_until_quiescent()
    assert handle2.fetch() == [(4, 1)]
    cell2.durability.close()


def test_no_duplicates_across_repeated_crashes(tmp_path):
    cell, handle = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1), (3, 2)])
    cell.run_until_quiescent()
    first = handle.fetch()
    cell.durability.abandon()

    # crash the recovered engine too, before it ingests anything new
    cell2, handle2 = _build(tmp_path)
    cell2.recover()
    cell2.run_until_quiescent()
    assert handle2.fetch() == []  # everything was already delivered
    cell2.durability.abandon()

    cell3, handle3 = _build(tmp_path)
    cell3.recover()
    cell3.run_until_quiescent()
    assert handle3.fetch() == []
    cell3.basket("feed").insert_rows([(9, 9)])
    cell3.run_until_quiescent()
    assert first + handle3.fetch() == [(2, 1), (3, 2), (9, 9)]
    cell3.durability.close()


WINDOW_SQL = "select sum(f.v) from [select * from feed] as f window 4 slide 2"


def test_window_aggregate_recovers_mid_window(tmp_path):
    def build(path):
        cell = DataCell(durability=DurabilityConfig(directory=path))
        cell.create_basket("feed", [("v", AtomType.INT)])
        handle = cell.submit_continuous(WINDOW_SQL, name="q")
        return cell, handle

    # uninterrupted reference over the same 10 values
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    ref_cell = DataCell()
    ref_cell.create_basket("feed", [("v", AtomType.INT)])
    ref = ref_cell.submit_continuous(WINDOW_SQL, name="q")
    ref_cell.basket("feed").insert_rows([(v,) for v in values])
    ref_cell.run_until_quiescent()
    reference = sorted(ref.fetch())

    cell, handle = build(tmp_path)
    cell.basket("feed").insert_rows([(v,) for v in values[:5]])
    cell.run_until_quiescent()  # window [1..4] fired; [3..6] is half full
    pre = handle.fetch()
    cell.checkpoint()
    cell.basket("feed").insert_rows([(values[5],)])  # in the WAL suffix
    cell.durability.abandon()

    cell2, handle2 = build(tmp_path)
    cell2.recover()
    cell2.run_until_quiescent()
    mid = handle2.fetch()
    cell2.basket("feed").insert_rows([(v,) for v in values[6:]])
    cell2.run_until_quiescent()
    post = handle2.fetch()
    assert sorted(pre + mid + post) == reference
    cell2.durability.close()


def test_torn_wal_tail_keeps_the_valid_prefix(tmp_path):
    cell, handle = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1)])
    cell.basket("feed").insert_rows([(3, 1)])
    cell.durability.abandon()
    # chop bytes off the active segment: the second insert becomes torn
    segments = list_segments(tmp_path / "wal")
    newest = segments[-1][1]
    newest.write_bytes(newest.read_bytes()[:-5])

    cell2, handle2 = _build(tmp_path)
    report = cell2.recover()
    assert report.torn_tail is True
    assert report.rows_replayed == 1
    cell2.run_until_quiescent()
    assert handle2.fetch() == [(2, 1)]
    cell2.durability.close()


def test_recovery_requires_identical_topology(tmp_path):
    cell, _ = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1)])
    cell.durability.abandon()

    fresh = DataCell(durability=DurabilityConfig(directory=tmp_path))
    # no 'feed' basket registered: replaying its records must fail loudly
    with pytest.raises(DataCellError):
        fresh.recover()
    fresh.durability.close()


def test_durability_disabled_writes_nothing(tmp_path):
    cell = DataCell()
    cell.create_basket("feed", [("a", AtomType.INT)])
    assert cell.durability is None
    assert cell.basket("feed").wal_sink is None
    cell.basket("feed").insert_rows([(1,)])
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DataCellError):
        cell.checkpoint()


def test_emit_suppression_handles_partial_batch(tmp_path):
    """A firing that mixes replayed and fresh rows delivers only fresh."""
    cell, handle = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1), (3, 1)])
    cell.run_until_quiescent()
    assert len(handle.fetch()) == 2
    cell.durability.abandon()

    cell2, handle2 = _build(tmp_path)
    cell2.recover()
    # insert fresh rows BEFORE draining: the emitter's first activation
    # sees replayed (suppressed) and fresh rows in one snapshot
    cell2.basket("feed").insert_rows([(5, 5)])
    cell2.run_until_quiescent()
    assert handle2.fetch() == [(5, 5)]
    cell2.durability.close()


def test_recovered_stats_surface(tmp_path):
    cell, _ = _build(tmp_path)
    cell.basket("feed").insert_rows([(2, 1)])
    cell.durability.abandon()
    cell2, _ = _build(tmp_path)
    cell2.recover()
    stats = cell2.stats()["durability"]
    assert stats["recovered"] is True
    assert stats["recovery_seconds"] is not None
    assert "Durability" in cell2.render_dashboard()
    cell2.durability.close()


def _stopped_cell_warnings(tmp_path, runs):
    """ResourceWarnings raised once a cell started and stopped ``runs``
    times (a row inserted per run) is dropped, and its recovered rows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        cell, handle = _build(tmp_path, fsync="always")
        for run in range(runs):
            cell.start()
            cell.basket("feed").insert_rows([(run + 2, run)])
            deadline = time.monotonic() + 10.0
            while handle.results_delivered <= run:
                assert time.monotonic() < deadline, "delivery stalled"
                time.sleep(0.001)
            assert cell.stop() == []
        del cell, handle
        gc.collect()
    leaked = [str(w.message) for w in caught
              if issubclass(w.category, ResourceWarning)]
    cell2, _ = _build(tmp_path)
    report = cell2.recover()
    cell2.durability.close()
    return leaked, report.rows_replayed


def test_stop_closes_the_wal_segment(tmp_path):
    assert _stopped_cell_warnings(tmp_path, 1) == ([], 1)


def test_a_restarted_cell_logs_into_a_new_segment(tmp_path):
    assert _stopped_cell_warnings(tmp_path, 2) == ([], 2)
    assert len(list_segments(tmp_path / "wal")) == 3  # two runs + recovery


def test_a_stopped_cell_driven_synchronously_still_logs(tmp_path):
    cell, handle = _build(tmp_path)
    cell.start()
    assert cell.stop() == []
    cell.basket("feed").insert_rows([(5, 50)])
    cell.run_until_quiescent()
    assert handle.fetch() == [(5, 50)]
    cell.durability.abandon()
    cell2, _ = _build(tmp_path)
    assert cell2.recover().rows_replayed == 1
    cell2.durability.close()
