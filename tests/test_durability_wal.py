"""The segmented write-ahead log: append, read, rotate, truncate, fsync.

The contract under test: a crashed writer's log always decodes to an
exact prefix of what was appended (torn tails detected, never invented
records), a restarted writer never appends into a pre-crash segment,
and the fsync policy dial only changes *when* fsync happens — every
append is flushed to the OS regardless.  Under ``always`` that moment is
a commit point (group commit); ``fsync_ledger`` records what each fsync
made durable.
"""

import sys
import threading

import numpy as np
import pytest

from repro.durability.serde import FRAME_HEADER, frames_with_tail
from repro.durability.wal import (
    CheckpointRecord,
    DurabilityConfig,
    EmitRecord,
    FsyncPolicy,
    InsertRecord,
    SEGMENT_MAGIC,
    WalWriter,
    decode_record,
    list_segments,
    read_wal,
)
from repro.errors import DurabilityError
from repro.kernel.types import AtomType

COLS = [("a", AtomType.INT), ("b", AtomType.DBL)]


def _arrays(values):
    return [
        np.array([v for v, _ in values], dtype=np.int32),
        np.array([v for _, v in values], dtype=np.float64),
    ]


def test_append_and_read_back_all_record_kinds(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.append_insert("feed", 1.5, COLS, _arrays([(1, 0.5), (2, 1.5)]))
    writer.append_emit("q_emitter", 7)
    writer.append_checkpoint_marker(3)
    writer.close()

    records, torn = read_wal(tmp_path)
    assert torn is False
    insert, emit, marker = records
    assert isinstance(insert, InsertRecord)
    assert insert.basket == "feed"
    assert insert.stamp == 1.5
    assert insert.count == 2
    assert [tuple(c) for c in insert.columns] == COLS
    assert list(insert.arrays[0]) == [1, 2]
    assert emit == EmitRecord("q_emitter", 7)
    assert marker == CheckpointRecord(3)


def test_restarted_writer_never_reuses_a_segment(tmp_path):
    first = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    first.append_emit("e", 1)
    first.abandon()  # crash
    second = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    assert second.current_segment == first.current_segment + 1
    second.append_emit("e", 2)
    second.close()
    records, torn = read_wal(tmp_path)
    assert [r.high_water for r in records] == [1, 2]
    assert torn is False


def test_torn_tail_is_truncated_and_reported(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.append_emit("e", 1)
    writer.append_emit("e", 2)
    writer.close()
    (seq, path), = list_segments(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])  # crash mid-write
    records, torn = read_wal(tmp_path)
    assert [r.high_water for r in records] == [1]
    assert torn is True


def test_crc_corruption_ends_the_whole_read(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    for i in range(3):
        writer.append_emit("e", i)
    writer.rotate()
    writer.append_emit("e", 99)  # lives in a *later* segment
    writer.close()
    (_, first_path), _ = list_segments(tmp_path)[:2]
    data = bytearray(first_path.read_bytes())
    data[-1] ^= 0xFF  # corrupt the last record of the first segment
    first_path.write_bytes(bytes(data))
    records, torn = read_wal(tmp_path)
    # the read stops at the corruption; the later segment's record must
    # NOT appear (it cannot be an acknowledged suffix of a broken log)
    assert [r.high_water for r in records] == [0, 1]
    assert torn is True


def test_rotate_defines_an_exact_suffix(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.append_emit("e", 1)
    cut = writer.rotate()
    writer.append_emit("e", 2)
    writer.close()
    suffix, torn = read_wal(tmp_path, start_segment=cut)
    assert [r.high_water for r in suffix] == [2]
    assert torn is False


def test_truncate_before_removes_only_sealed_prefix(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.append_emit("e", 1)
    cut = writer.rotate()
    writer.append_emit("e", 2)
    removed = writer.truncate_before(cut)
    writer.close()
    assert removed == 1
    assert [seq for seq, _ in list_segments(tmp_path)] == [cut]
    records, _ = read_wal(tmp_path)
    assert [r.high_water for r in records] == [2]


def test_size_based_rotation(tmp_path):
    writer = WalWriter(
        tmp_path, fsync=FsyncPolicy.OFF, segment_max_bytes=1024
    )
    start = writer.current_segment
    for i in range(100):
        writer.append_emit("some_emitter_name", i)
    writer.close()
    assert writer.current_segment > start
    records, torn = read_wal(tmp_path)
    assert [r.high_water for r in records] == list(range(100))
    assert torn is False


def test_fsync_policies(tmp_path):
    # always is group commit: appends only flush, commit() fsyncs once
    # for everything new, and a commit with nothing new is free
    always = WalWriter(tmp_path / "a", fsync=FsyncPolicy.ALWAYS)
    for i in range(5):
        always.append_emit("e", i)
    assert always.fsyncs == 0 and always.dirty
    always.commit()
    assert always.fsyncs == 1 and not always.dirty
    always.commit()
    assert always.fsyncs == 1
    always.close()
    assert always.fsyncs == 1

    off = WalWriter(tmp_path / "b", fsync=FsyncPolicy.OFF)
    for i in range(5):
        off.append_emit("e", i)
    off.commit()
    off.close()
    assert off.fsyncs == 0

    # a huge interval means only the sync() call fsyncs
    interval = WalWriter(
        tmp_path / "c", fsync=FsyncPolicy.INTERVAL, fsync_interval=3600.0
    )
    for i in range(5):
        interval.append_emit("e", i)
    interval.commit()
    assert interval.fsyncs == 0
    interval.sync()
    assert interval.fsyncs == 1
    interval.close()


def test_close_fsyncs_dirty_data_under_always(tmp_path, fsync_ledger):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.ALWAYS)
    writer.append_emit("e", 1)
    writer.append_emit("e", 2)
    writer.close()
    assert writer.fsyncs == 1
    (_, path), = list_segments(tmp_path)
    assert fsync_ledger.synced_length(path) == path.stat().st_size


def test_rotate_leaves_nothing_dirty(tmp_path, fsync_ledger):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.ALWAYS)
    writer.append_emit("e", 1)
    writer.rotate()
    assert not writer.dirty
    writer.commit()  # nothing new since the rotation's fsync
    assert writer.fsyncs == 1
    writer.close()
    sealed, _ = list_segments(tmp_path)
    assert fsync_ledger.synced_length(sealed[1]) == sealed[1].stat().st_size


def test_new_segment_directory_entry_is_synced(tmp_path, fsync_ledger):
    """A power loss must not drop a segment file whose records were
    synced: each segment's directory entry is fsynced once, with the
    segment's first fsync, under ``always`` and ``interval`` — never
    under ``off``."""
    for policy in FsyncPolicy:
        directory = tmp_path / policy.value
        writer = WalWriter(directory, fsync=policy, segment_max_bytes=1024)
        assert fsync_ledger.dir_syncs(directory) == 0  # nothing to keep yet
        for i in range(100):
            writer.append_emit("some_emitter_name", i)
        writer.rotate()
        writer.append_emit("some_emitter_name", 100)
        writer.commit()
        writer.sync()
        writer.close()
        segments = len(list_segments(directory))
        assert segments > 2
        expected = 0 if policy is FsyncPolicy.OFF else segments
        assert fsync_ledger.dir_syncs(directory) == expected


def test_a_returned_commit_covers_its_own_threads_records(
    tmp_path, fsync_ledger
):
    """Threads append and commit concurrently; when a thread's commit()
    returns, the synced length covers that thread's records, whichever
    thread's fsync did the work."""
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.ALWAYS)
    (_, path), = list_segments(tmp_path)
    returned = []  # (emitter, high_water, synced length at return)

    def worker(name):
        for i in range(40):
            writer.append_emit(name, i)
            writer.commit()
            returned.append((name, i, fsync_ledger.synced_length(path)))

    threads = [
        threading.Thread(target=worker, args=(f"t{n}",)) for n in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave appends and commits finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    writer.close()

    ends = {}
    offset = len(SEGMENT_MAGIC)
    for payload in frames_with_tail(path.read_bytes()[offset:])[0]:
        offset += FRAME_HEADER.size + len(payload)
        record = decode_record(payload)
        ends[(record.emitter, record.high_water)] = offset
    assert len(ends) == len(returned) == 160
    for name, i, synced in returned:
        assert ends[(name, i)] <= synced
    assert writer.fsyncs <= 160


def test_segment_files_carry_magic(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.append_emit("e", 0)
    writer.close()
    (_, path), = list_segments(tmp_path)
    assert path.read_bytes().startswith(SEGMENT_MAGIC)


def test_closed_writer_rejects_appends(tmp_path):
    writer = WalWriter(tmp_path, fsync=FsyncPolicy.OFF)
    writer.close()
    with pytest.raises(DurabilityError):
        writer.append_emit("e", 0)


def test_config_normalizes_and_validates():
    config = DurabilityConfig(directory="/tmp/x", fsync="always")
    assert config.fsync is FsyncPolicy.ALWAYS
    with pytest.raises(DurabilityError):
        DurabilityConfig(directory="/tmp/x", fsync="sometimes")
    with pytest.raises(DurabilityError):
        DurabilityConfig(directory="/tmp/x", segment_max_bytes=10)
    with pytest.raises(DurabilityError):
        DurabilityConfig(directory="/tmp/x", keep_checkpoints=0)
