"""The basket write-ahead log: segmented, checksummed, replayable.

The WAL records the engine's *non-deterministic inputs* — every batch
ingested into a source basket (at the ``insert_rows``/``insert_columns``
boundary, after arity validation, before load shedding) plus each
emitter's delivery high-water mark.  Everything downstream of ingest is
a deterministic function of the ingest order (the property
``repro.simtest`` checks continuously), so replaying the log through the
normal ingest path reconstructs every derived basket, window buffer,
and output sequence number exactly.

Record kinds (one framed record per event, see
:mod:`repro.durability.serde` for the frame format)::

    INSERT      basket name, batch dc_time stamp, per-column payloads
    EMIT        emitter name, high-water output sequence delivered
    CHECKPOINT  checkpoint id (a marker for post-mortems; recovery uses
                the checkpoint manifest, not this record)

Segments are ``wal-<n>.log`` files under the WAL directory, each opened
with a magic header.  A writer never appends to a pre-crash segment: it
always starts a fresh one, so torn tails stay confined to the segment
that was active when the process died.  ``rotate()`` seals the current
segment and starts the next — the checkpointer calls it inside the
engine-wide cut so "replay everything from segment N" is a well-defined
suffix — and ``truncate_before(n)`` deletes segments the newest
checkpoint made redundant.

Fsync policy (the durability/throughput dial):

``always``
    group commit: an append only marks the log dirty, and
    :meth:`WalWriter.commit` fsyncs once for every record written since
    the last fsync.  The engine commits wherever a record's effects
    first leave it (before an emitter hands a batch to subscribers,
    before the server ACKs, before ``run_until_quiescent``/``execute``
    return), so nothing delivered, acknowledged or read is lost to a
    power failure.
``interval``
    fsync when ``fsync_interval`` seconds passed since the last one —
    bounded loss window after power failure.
``off``
    never fsync (the OS flushes when it pleases).

All three policies ``flush()`` the python buffer to the OS per record,
so a *process* crash (the failure the simulation harness injects) loses
nothing under any policy; fsync only matters when the whole machine
goes down.  Under ``always`` and ``interval`` a segment's first fsync
also fsyncs the WAL directory, so a power loss cannot drop a whole
segment whose records were already synced.
"""

from __future__ import annotations

import enum
import json
import os
import re
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DurabilityError
from ..kernel.types import AtomType
from ..obs.metrics import Tally
from .checkpoint import _fsync_dir
from .serde import decode_column, encode_column, frames_with_tail, pack_frame

__all__ = [
    "FsyncPolicy",
    "DurabilityConfig",
    "InsertRecord",
    "EmitRecord",
    "FiringRecord",
    "CheckpointRecord",
    "WalWriter",
    "read_wal",
    "list_segments",
]

SEGMENT_MAGIC = b"DCWAL1\n"
SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

_KIND = struct.Struct("<B")
_U32 = struct.Struct("<I")
KIND_INSERT = 1
KIND_EMIT = 2
KIND_CHECKPOINT = 3
KIND_FIRING = 4


class FsyncPolicy(enum.Enum):
    ALWAYS = "always"
    INTERVAL = "interval"
    OFF = "off"


@dataclass
class DurabilityConfig:
    """Knobs of the durability subsystem (``DataCell(durability=...)``).

    ``directory`` is the root; the engine keeps ``<root>/wal/`` and
    ``<root>/checkpoints/`` under it.  ``checkpoint_interval`` (seconds,
    real time) arms the background checkpoint thread in threaded mode;
    ``None`` leaves checkpointing fully manual (``cell.checkpoint()``).
    ``keep_checkpoints`` retains that many newest checkpoints so a
    corrupt latest can fall back to its predecessor.
    """

    directory: Union[str, Path]
    fsync: Union[str, FsyncPolicy] = FsyncPolicy.INTERVAL
    fsync_interval: float = 0.05
    segment_max_bytes: int = 8 * 1024 * 1024
    checkpoint_interval: Optional[float] = None
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.fsync, str):
            try:
                self.fsync = FsyncPolicy(self.fsync)
            except ValueError:
                raise DurabilityError(
                    f"unknown fsync policy {self.fsync!r}; expected one of "
                    f"{[p.value for p in FsyncPolicy]}"
                ) from None
        if self.segment_max_bytes < 1024:
            raise DurabilityError("segment_max_bytes must be at least 1 KiB")
        if self.keep_checkpoints < 1:
            raise DurabilityError("keep_checkpoints must be at least 1")


# ----------------------------------------------------------------------
# decoded records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InsertRecord:
    """One ingested batch: the unit of replay."""

    basket: str
    stamp: float
    columns: Tuple[Tuple[str, AtomType], ...]
    arrays: Tuple[np.ndarray, ...]

    @property
    def count(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0


@dataclass(frozen=True)
class EmitRecord:
    """An emitter delivered everything up to ``high_water`` (inclusive)."""

    emitter: str
    high_water: int


@dataclass(frozen=True)
class FiringRecord:
    """One factory activation completed after the preceding records.

    Replay re-activates the factory at exactly this point, reproducing
    the original firing schedule.  Without it, replay would coalesce
    every post-checkpoint insert into one giant firing — harmless for
    operators whose output is a per-row function of the input, but
    batching-sensitive operators (the incremental GROUP-BY aggregate
    emits one retract/insert pair per *touched group per firing*) would
    produce a different delta sequence, desynchronizing the emitters'
    sequence-based exactly-once suppression.
    """

    factory: str


@dataclass(frozen=True)
class CheckpointRecord:
    """Marker: checkpoint ``checkpoint_id`` completed after this point."""

    checkpoint_id: int


WalEntry = Union[InsertRecord, EmitRecord, FiringRecord, CheckpointRecord]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_insert(record: InsertRecord) -> bytes:
    header = json.dumps(
        {
            "basket": record.basket,
            "stamp": record.stamp,
            "cols": [[n, a.value] for n, a in record.columns],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [_KIND.pack(KIND_INSERT), _U32.pack(len(header)), header]
    for (name, atom), array in zip(record.columns, record.arrays):
        payload = encode_column(atom, array)
        parts.append(_U32.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def _encode_json_record(kind: int, doc: dict) -> bytes:
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _KIND.pack(kind) + _U32.pack(len(body)) + body


def decode_record(payload: bytes) -> WalEntry:
    """Decode one frame payload into a typed record."""
    if not payload:
        raise DurabilityError("empty WAL record payload")
    (kind,) = _KIND.unpack_from(payload, 0)
    offset = _KIND.size
    if len(payload) < offset + _U32.size:
        raise DurabilityError("WAL record shorter than its header")
    (header_len,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    if len(payload) < offset + header_len:
        raise DurabilityError("WAL record header truncated")
    doc = json.loads(payload[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    if kind == KIND_EMIT:
        return EmitRecord(doc["emitter"], int(doc["high_water"]))
    if kind == KIND_CHECKPOINT:
        return CheckpointRecord(int(doc["checkpoint"]))
    if kind == KIND_FIRING:
        return FiringRecord(doc["factory"])
    if kind != KIND_INSERT:
        raise DurabilityError(f"unknown WAL record kind {kind}")
    columns = tuple((n, AtomType(a)) for n, a in doc["cols"])
    arrays: List[np.ndarray] = []
    for _, atom in columns:
        if len(payload) < offset + _U32.size:
            raise DurabilityError("WAL insert record column truncated")
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if len(payload) < offset + length:
            raise DurabilityError("WAL insert record column truncated")
        arrays.append(decode_column(atom, payload[offset : offset + length]))
        offset += length
    return InsertRecord(
        doc["basket"], float(doc["stamp"]), columns, tuple(arrays)
    )


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
def _segment_path(directory: Path, seq: int) -> Path:
    return directory / f"wal-{seq:08d}.log"


def list_segments(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """``(segment_seq, path)`` pairs sorted by segment number."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = SEGMENT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


class WalWriter:
    """Appends framed records to the active segment (thread-safe).

    ``_synced`` is the ``records_written`` count the newest completed
    fsync covers, so the log is dirty exactly while it lags behind.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: FsyncPolicy = FsyncPolicy.INTERVAL,
        fsync_interval: float = 0.05,
        segment_max_bytes: int = 8 * 1024 * 1024,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_max_bytes = int(segment_max_bytes)
        self._lock = threading.Lock()
        # one committer at a time; taken before (never under) _lock
        self._commit_lock = threading.Lock()
        self._last_fsync = time.monotonic()
        self._synced = 0
        # records and bytes appended, fsyncs issued: tallies (written
        # under _lock, or by the one committer) a metrics registry reads
        self._records = Tally()
        self._bytes = Tally()
        self._fsyncs = Tally()
        existing = list_segments(self.directory)
        # never reuse a pre-crash segment: its tail may be torn
        self._segment_seq = existing[-1][0] + 1 if existing else 0
        self._file = None
        # closed by suspend(): the next record or rotation opens the
        # next segment instead of failing
        self._suspended = False
        self._open_segment(self._segment_seq)

    # ------------------------------------------------------------------
    @property
    def current_segment(self) -> int:
        return self._segment_seq

    @property
    def records_written(self) -> int:
        return self._records.value

    @property
    def bytes_written(self) -> int:
        return self._bytes.value

    @property
    def fsyncs(self) -> int:
        return self._fsyncs.value

    def tallies(self) -> Tuple[Tally, Tally, Tally]:
        """The records, bytes and fsyncs tallies, for ``read_from``."""
        return self._records, self._bytes, self._fsyncs

    @property
    def dirty(self) -> bool:
        """Whether anything was written since the newest fsync."""
        return self._synced < self._records.value

    def _open_segment(self, seq: int) -> None:
        self._segment_seq = seq
        self._file = open(_segment_path(self.directory, seq), "ab")
        if self._file.tell() == 0:
            self._file.write(SEGMENT_MAGIC)
            self._file.flush()
        # the new file's directory entry must reach the disk too, or a
        # power loss drops the segment and every record synced in it:
        # the segment's first fsync syncs the directory as well
        self._entry_synced = self.fsync_policy is FsyncPolicy.OFF

    # ------------------------------------------------------------------
    def append_insert(
        self,
        basket: str,
        stamp: float,
        columns: Sequence[Tuple[str, AtomType]],
        arrays: Sequence[np.ndarray],
    ) -> None:
        self._append(
            _encode_insert(
                InsertRecord(
                    basket, float(stamp), tuple(columns), tuple(arrays)
                )
            )
        )

    def append_emit(self, emitter: str, high_water: int) -> None:
        self._append(
            _encode_json_record(
                KIND_EMIT, {"emitter": emitter, "high_water": int(high_water)}
            )
        )

    def append_firing(self, factory: str) -> None:
        self._append(
            _encode_json_record(KIND_FIRING, {"factory": factory})
        )

    def append_checkpoint_marker(self, checkpoint_id: int) -> None:
        self._append(
            _encode_json_record(
                KIND_CHECKPOINT, {"checkpoint": int(checkpoint_id)}
            )
        )

    def _append(self, payload: bytes) -> None:
        frame = pack_frame(payload)
        with self._lock:
            if self._file is None:
                self._reopen_suspended_locked()
            self._file.write(frame)
            # flush to the OS unconditionally: a process crash (kill -9)
            # then loses nothing; fsync is the power-loss dial
            self._file.flush()
            self._records.value += 1
            self._bytes.value += len(frame)
            if self.fsync_policy is FsyncPolicy.INTERVAL:
                now = time.monotonic()
                if now - self._last_fsync >= self.fsync_interval:
                    self._last_fsync = now
                    self._fsync_locked()
            if self._file.tell() >= self.segment_max_bytes:
                self._rotate_locked()

    def _fsync_locked(self) -> None:
        os.fsync(self._file.fileno())
        if not self._entry_synced:
            _fsync_dir(self.directory)
            self._entry_synced = True
        self._synced = self._records.value
        self._fsyncs.value += 1

    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Make every record appended so far durable (``always`` only).

        One fsync covers every record written since the previous one.
        It runs outside the append lock, so other threads keep appending
        during the disk wait; a commit whose records a concurrent
        commit's fsync already covered returns without syncing — the
        group in group commit.  A no-op under ``interval`` and ``off``.
        """
        if self.fsync_policy is not FsyncPolicy.ALWAYS:
            return
        # this thread's own appends are already counted
        target = self._records.value
        if self._synced >= target:
            return
        with self._commit_lock:
            if self._synced >= target:
                return
            with self._lock:
                if self._file is None:
                    return
                written = self._records.value
                segment, entry_synced = self._segment_seq, self._entry_synced
                # a rotation may close the segment during the wait: sync
                # a duplicate descriptor of the same file
                fd = os.dup(self._file.fileno())
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            if not entry_synced:
                _fsync_dir(self.directory)
            with self._lock:
                if segment == self._segment_seq:
                    self._entry_synced = True
                self._synced = max(self._synced, written)
                self._fsyncs.value += 1

    # ------------------------------------------------------------------
    def rotate(self) -> int:
        """Seal the active segment, start the next; returns its number.

        The checkpointer calls this inside the consistency cut: records
        before the cut live in segments ``< rotate()``, records after it
        in ``>= rotate()``, so the manifest's "replay from segment N"
        names an exact suffix.
        """
        with self._lock:
            if self._file is None:
                self._reopen_suspended_locked()
            return self._rotate_locked()

    def _rotate_locked(self) -> int:
        self._file.flush()
        # sealing is a commit, and an unconditional one: a segment that
        # holds only its header must be durable too, or recovery's read
        # would stop there before reaching the next segment
        if self.fsync_policy is not FsyncPolicy.OFF:
            self._fsync_locked()
        self._file.close()
        self._open_segment(self._segment_seq + 1)
        return self._segment_seq

    def truncate_before(self, segment_seq: int) -> int:
        """Delete sealed segments ``< segment_seq``; returns count removed."""
        removed = 0
        for seq, path in list_segments(self.directory):
            if seq < segment_seq and seq != self._segment_seq:
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - races with inspection
                    pass
        return removed

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush and fsync regardless of policy (``stop()`` calls this)."""
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            self._fsync_locked()

    def _reopen_suspended_locked(self) -> None:
        """With no segment open: open the next one after :meth:`suspend`,
        refuse after :meth:`close`."""
        if not self._suspended:
            raise DurabilityError("WAL writer is closed")
        self._suspended = False
        self._open_segment(self._segment_seq + 1)

    def suspend(self) -> None:
        """Close the active segment like :meth:`close`, but let the next
        record or rotation open the next segment: a stopped engine holds
        no open file, and may still log."""
        self._close(suspended=True)

    def close(self) -> None:
        """Close the active segment; under ``always`` this is a commit."""
        self._close(suspended=False)

    def _close(self, suspended: bool) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()
                if self.fsync_policy is FsyncPolicy.ALWAYS and self.dirty:
                    self._fsync_locked()
                self._file.close()
                self._file = None
            self._suspended = suspended

    def abandon(self) -> None:
        """Drop the file handle without flushing — crash simulation only.

        Everything already ``flush()``-ed per record survives (the OS
        holds it), which is exactly the state a killed process leaves
        behind; since every append flushes, the user-space buffer is
        empty and dropping the handle loses nothing.  Crucially, no
        final fsync happens — the log is left exactly as the OS saw it.
        """
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            self._suspended = False


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def read_wal(
    directory: Union[str, Path],
    start_segment: int = 0,
    stop_segment: Optional[int] = None,
) -> Tuple[List[WalEntry], bool]:
    """Decode all records in segments ``[start_segment, stop_segment)``.

    Returns ``(records, torn)`` where ``torn`` reports whether a torn or
    corrupt tail was truncated away.  A bad frame ends the whole read
    (not just its segment): later segments cannot contain acknowledged
    records if an earlier one is damaged, because segments are written
    strictly in order.
    """
    records: List[WalEntry] = []
    torn = False
    for seq, path in list_segments(directory):
        if seq < start_segment:
            continue
        if stop_segment is not None and seq >= stop_segment:
            break
        data = path.read_bytes()
        if not data.startswith(SEGMENT_MAGIC):
            return records, True
        payloads, segment_torn = frames_with_tail(
            data[len(SEGMENT_MAGIC):]
        )
        for payload in payloads:
            records.append(decode_record(payload))
        if segment_torn:
            torn = True
            break
    return records, torn
