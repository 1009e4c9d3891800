"""Shared fixtures: run-wide seeding and thread hermeticity.

Every test session seeds through :func:`repro.testing.seed_all` (the one
seeding path; override with ``DATACELL_SEED``) and echoes the seed in
the pytest header so a failing run can be replayed exactly.

``fsync_ledger`` wraps ``os.fsync`` to record what each call made
durable — the model the power-loss tests cut the log back to.

The autouse fixture below makes threaded-mode tests hermetic: any
engine thread still alive after a test is a cleanup bug (a missing
``cell.stop()``/``close()``), and a leaked thread can corrupt whichever
test runs next — so it fails loudly here instead.
"""

import os
import stat
import threading
import time
from collections import Counter

import pytest

from repro.testing import seed_all

# the name prefix every engine-owned thread carries (scheduler
# transitions, checkpointer, flight recorder, HTTP endpoint, server loop)
ENGINE_THREAD_PREFIX = "datacell-"


def pytest_report_header(config):
    return f"datacell seed: {seed_all()} (override with DATACELL_SEED)"


def _engine_threads():
    return [
        t.name
        for t in threading.enumerate()
        if t.is_alive() and t.name.startswith(ENGINE_THREAD_PREFIX)
    ]


@pytest.fixture(autouse=True)
def no_leaked_engine_threads():
    """Fail any test that leaves engine threads running behind it."""
    before = set(_engine_threads())
    yield
    # brief grace: daemon threads observe their stop flag asynchronously
    deadline = time.monotonic() + 2.0
    leaked = [n for n in _engine_threads() if n not in before]
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = [n for n in _engine_threads() if n not in before]
    if leaked:
        pytest.fail(
            "test leaked engine threads (missing stop()/close()?): "
            f"{sorted(leaked)}"
        )


class FsyncLedger:
    """What ``os.fsync`` made durable, per file.

    ``synced_length(path)`` is the longest length of ``path`` a completed
    fsync covered; the length is read before the real fsync runs, so it
    never claims bytes written during the disk wait.  Directory fsyncs
    are counted instead (``dir_syncs(path)``).  Files are keyed by
    inode: tests using the ledger must not delete files and create new
    ones in the same directory tree.
    """

    def __init__(self, real):
        self._real = real
        self._lock = threading.Lock()
        self._synced = {}
        self._dir_syncs = Counter()

    def fsync(self, fd):
        st = os.fstat(fd)
        self._real(fd)
        with self._lock:
            if stat.S_ISDIR(st.st_mode):
                self._dir_syncs[st.st_ino] += 1
            else:
                self._synced[st.st_ino] = max(
                    self._synced.get(st.st_ino, 0), st.st_size
                )

    def synced_length(self, path):
        with self._lock:
            return self._synced.get(os.stat(path).st_ino, 0)

    def dir_syncs(self, path):
        with self._lock:
            return self._dir_syncs[os.stat(path).st_ino]


@pytest.fixture
def fsync_ledger(monkeypatch):
    """An :class:`FsyncLedger` installed as ``os.fsync`` for one test."""
    ledger = FsyncLedger(os.fsync)
    monkeypatch.setattr(os, "fsync", ledger.fsync)
    return ledger
