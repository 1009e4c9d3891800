"""Shared fixtures: run-wide seeding and thread hermeticity.

Every test session seeds through :func:`repro.testing.seed_all` (the one
seeding path; override with ``DATACELL_SEED``) and echoes the seed in
the pytest header so a failing run can be replayed exactly.

The autouse fixture below makes threaded-mode tests hermetic: any
engine thread still alive after a test is a cleanup bug (a missing
``cell.stop()``/``close()``), and a leaked thread can corrupt whichever
test runs next — so it fails loudly here instead.
"""

import threading
import time

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
