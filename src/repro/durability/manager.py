"""The durability manager: one object wiring WAL + checkpoint + recovery.

:class:`~repro.core.engine.DataCell` owns at most one manager (built
when ``durability=DurabilityConfig(...)`` is passed).  Baskets and
emitters hold it as their ``wal_sink``; every hook they call is a no-op
attribute check when durability is off, which is what keeps the
disabled-path overhead at zero.

The checkpoint consistency cut
------------------------------
``checkpoint()`` acquires *every* basket lock, in global name order —
the same order :meth:`repro.core.factory.Factory._lock_order` uses, so a
concurrent factory activation (which holds all its baskets' locks for
its whole critical section) either completes before the cut or starts
after it, never straddles it.  Receptors and emitters take single
basket locks, so the all-locks cut is a quiescent point of the entire
Petri net: basket contents, factory saved state (only mutated under
those same locks), binding cursors, and emitter high-water marks are
mutually consistent inside it.  The WAL is rotated *inside* the cut,
making "replay from segment N" an exact suffix.  Serialization and file
I/O happen after the locks are released — only memory copies happen
inside the cut.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..kernel.types import AtomType
from .checkpoint import (
    CheckpointSnapshot,
    list_checkpoints,
    write_checkpoint,
)
from .wal import DurabilityConfig, WalWriter, list_segments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import DataCell
    from .recovery import RecoveryReport

__all__ = ["DurabilityManager"]


class _CheckpointThread(threading.Thread):
    """Background checkpointer, armed by ``checkpoint_interval``.

    Named with the engine's ``datacell-`` prefix so the test suite's
    thread-hermeticity fixture catches a leak (a missing ``stop()``).
    """

    def __init__(self, manager: "DurabilityManager", interval: float):
        super().__init__(name="datacell-checkpointer", daemon=True)
        self._manager = manager
        self._interval = interval
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                self._manager.checkpoint()
            except Exception:
                self._manager.checkpoint_failures += 1

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        self.join(timeout)


class DurabilityManager:
    """Coordinates the WAL, checkpoints, and recovery for one engine."""

    def __init__(self, engine: "DataCell", config: DurabilityConfig):
        self.engine = engine
        self.config = config
        self.root = Path(config.directory)
        self.wal_dir = self.root / "wal"
        self.checkpoint_dir = self.root / "checkpoints"
        self.root.mkdir(parents=True, exist_ok=True)
        metrics = engine.metrics
        self._m_checkpoints = metrics.counter(
            "datacell_checkpoints_total", "Checkpoints completed"
        )
        self._m_ckpt_seconds = metrics.histogram(
            "datacell_checkpoint_seconds",
            "Wall time of one checkpoint (cut + serialization + fsync)",
        )
        self._m_recovery_seconds = metrics.histogram(
            "datacell_recovery_seconds",
            "Wall time of one recovery (load checkpoint + replay WAL)",
        )

        self.wal = WalWriter(
            self.wal_dir,
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
            segment_max_bytes=config.segment_max_bytes,
        )
        # the writer counts; the series read its tallies (summed, so a
        # writer made again under the same registry continues them)
        for (name, help), tally in zip((
            ("datacell_wal_records_total", "Records appended to the WAL"),
            ("datacell_wal_bytes_total", "Bytes appended to the WAL"),
            ("datacell_wal_fsyncs_total", "fsync calls issued by the WAL"),
        ), self.wal.tallies()):
            metrics.counter(name, help).read_from(tally)
        # recovery must ignore records this process writes after restart:
        # everything before this segment is the pre-crash log
        self._recovery_stop_segment = self.wal.current_segment
        existing = list_checkpoints(self.checkpoint_dir)
        self._next_checkpoint_id = existing[-1][0] + 1 if existing else 1
        self._checkpoint_lock = threading.Lock()
        self._checkpointer: Optional[_CheckpointThread] = None
        self.replaying = False
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        self.last_checkpoint_seconds: Optional[float] = None
        self.last_recovery: Optional["RecoveryReport"] = None

    # ------------------------------------------------------------------
    # WAL hooks (called by Basket / Emitter under their own locks)
    # ------------------------------------------------------------------
    def log_insert(
        self,
        basket: str,
        stamp: float,
        columns: Sequence[Tuple[str, AtomType]],
        arrays: Sequence[np.ndarray],
    ) -> None:
        """Record one ingested batch (skipped while replaying that log)."""
        if self.replaying:
            return
        self.wal.append_insert(basket, stamp, columns, arrays)

    def log_emit(self, emitter: str, high_water: int) -> None:
        """Record an emitter's new delivery high-water mark."""
        if self.replaying:
            return
        self.wal.append_emit(emitter, high_water)

    def log_firing(self, factory: str) -> None:
        """Record one factory activation boundary.

        Replay re-activates factories at these exact points so the
        recovered output reproduces the original firing schedule —
        required for batching-sensitive operators (e.g. the incremental
        GROUP-BY aggregate) whose per-firing delta depends on how the
        input was chopped, not just on its content.
        """
        if self.replaying:
            return
        self.wal.append_firing(factory)

    def commit(self) -> None:
        """A commit point: under ``fsync="always"``, one fsync makes every
        record logged so far durable (free when nothing is new).

        The engine calls it wherever a record's effects first leave the
        engine: an emitter before it hands a batch to subscribers, the
        server's ingest pump before it ACKs, ``run_until_quiescent`` and
        a one-shot ``execute`` before they return.
        """
        self.wal.commit()

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Take one engine-wide checkpoint; returns its id."""
        from ..core.basket import Basket
        from ..core.emitter import Emitter
        from ..core.factory import Factory

        with self._checkpoint_lock:
            started = time.perf_counter()
            checkpoint_id = self._next_checkpoint_id
            # system baskets (sys.*) are derived telemetry: never WAL'd
            # (their wal_sink stays None), never checkpointed — recovery
            # rebuilds them empty and the sampler repopulates them
            baskets = sorted(
                (
                    t
                    for t in self.engine.catalog.baskets()
                    if isinstance(t, Basket) and not t.is_system
                ),
                key=lambda b: b.name.lower(),
            )
            acquired = []
            try:
                for basket in baskets:
                    basket.lock.acquire()
                    acquired.append(basket)
            except BaseException:
                for basket in reversed(acquired):
                    basket.lock.release()
                raise
            try:
                snapshot = CheckpointSnapshot(
                    checkpoint_id=checkpoint_id,
                    wal_start_segment=self.wal.rotate(),
                    clock_now=float(self.engine.clock.now()),
                )
                for basket in baskets:
                    state = basket.export_state()
                    state.digest = basket.state_digest()
                    snapshot.baskets[basket.name] = state
                for transition in self.engine.scheduler.transitions():
                    if isinstance(transition, Factory):
                        snapshot.factories[transition.name] = (
                            transition.export_state()
                        )
                    elif isinstance(transition, Emitter):
                        snapshot.emitters[transition.name] = int(
                            transition.high_water_seq
                        )
            finally:
                for basket in reversed(baskets):
                    basket.lock.release()
            # disk work happens outside the cut: only copies were made
            # while the locks were held
            write_checkpoint(
                self.checkpoint_dir,
                snapshot,
                keep=self.config.keep_checkpoints,
            )
            self.wal.truncate_before(snapshot.wal_start_segment)
            self.wal.append_checkpoint_marker(checkpoint_id)
            self._next_checkpoint_id = checkpoint_id + 1
            self.checkpoints_taken += 1
            elapsed = time.perf_counter() - started
            self.last_checkpoint_seconds = elapsed
            self._m_checkpoints.inc()
            self._m_ckpt_seconds.observe(elapsed)
            self.engine.trace.record(
                "checkpoint",
                "durability",
                id=checkpoint_id,
                seconds=round(elapsed, 6),
            )
            return checkpoint_id

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> "RecoveryReport":
        """Restore the engine from disk (see :mod:`.recovery`)."""
        from .recovery import recover

        started = time.perf_counter()
        report = recover(self, stop_segment=self._recovery_stop_segment)
        report.seconds = time.perf_counter() - started
        self._m_recovery_seconds.observe(report.seconds)
        self.last_recovery = report
        self.engine.trace.record(
            "recovery",
            "durability",
            checkpoint=report.checkpoint_id,
            replayed=report.rows_replayed,
        )
        return report

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_checkpointer(self) -> None:
        if (
            self.config.checkpoint_interval is None
            or self._checkpointer is not None
        ):
            return
        self._checkpointer = _CheckpointThread(
            self, self.config.checkpoint_interval
        )
        self._checkpointer.start()

    def stop_checkpointer(self, timeout: float = 5.0) -> None:
        if self._checkpointer is not None:
            self._checkpointer.stop(timeout)
            self._checkpointer = None

    def flush(self) -> None:
        """Force the WAL to stable storage (``DataCell.stop()`` path)."""
        self.wal.sync()

    def suspend(self) -> None:
        """Close the WAL segment until the next record opens a new one
        (``DataCell.stop()``: a stopped engine keeps no file open)."""
        self.wal.suspend()

    def close(self) -> None:
        self.stop_checkpointer()
        self.wal.close()

    def abandon(self) -> None:
        """Simulate a process kill: drop handles, skip every final flush."""
        if self._checkpointer is not None:
            self._checkpointer.stop(0.0)
            self._checkpointer = None
        self.wal.abandon()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Durability section of :meth:`DataCell.stats`."""
        segments = [seq for seq, _ in list_segments(self.wal_dir)]
        return {
            "wal_records": self.wal.records_written,
            "wal_bytes": self.wal.bytes_written,
            "wal_fsyncs": self.wal.fsyncs,
            "wal_segments": len(segments),
            "fsync_policy": self.config.fsync.value,
            "checkpoints": self.checkpoints_taken,
            "checkpoint_failures": self.checkpoint_failures,
            "last_checkpoint_seconds": self.last_checkpoint_seconds,
            "recovered": self.last_recovery is not None,
            "recovery_seconds": (
                self.last_recovery.seconds if self.last_recovery else None
            ),
        }
