"""Flight recorder: stall detection, exception capture, post-mortems."""

import json
import time

import pytest

from repro import DataCell
from repro.core.factory import CallablePlan
from repro.kernel.types import AtomType
from repro.obs.flightrec import FlightRecorder

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_wedged_cell():
    """A cell whose only factory never fires: the classic silent wedge."""
    cell = DataCell()
    cell.execute("create basket sensors (sensor int, temp double)")
    query = cell.submit_continuous(CQ, name="q1")
    query.factory.enabled = lambda: False  # wedge it
    return cell, query


def drive_stall(cell, recorder, rounds=5):
    """Insert while the factory is wedged, sampling after each append."""
    stall = None
    for i in range(rounds):
        cell.insert("sensors", [(i, 45.0)])
        cell.run_until_quiescent()  # nothing enabled: firings stay flat
        stall = recorder.sample() or stall
    return stall


class TestStallDetection:
    def test_wedged_factory_detected(self):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3)
        stall = drive_stall(cell, recorder)
        assert stall is not None
        assert stall["baskets"] == ["sensors"]
        assert "q1" in stall["transitions"]
        assert stall["firings_during_window"] == 0
        # the stall is a ``stall`` event of the cell's log, which is
        # where the recorder reads it back from
        assert recorder.stalls() == [stall]
        (event,) = cell.trace.events(kind="stall")
        assert event.component == "sensors"
        assert event.detail == stall

    def test_healthy_pipeline_never_stalls(self):
        cell = DataCell()
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="q1")
        recorder = FlightRecorder(cell, window=3)
        for i in range(6):
            cell.insert("sensors", [(i, 45.0)])
            cell.run_until_quiescent()  # consumes: firings advance
            assert recorder.sample() is None
        assert recorder.stalls() == []

    def test_flat_depth_is_not_a_stall(self):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3)
        for _ in range(5):  # idle engine: flat firings AND flat depth
            assert recorder.sample() is None

    def test_draining_basket_is_backpressure_not_stall(self):
        cell, query = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3)
        cell.insert("sensors", [(1, 45.0), (2, 46.0)])
        recorder.sample()
        # mid-window the factory briefly unwedges and drains one tuple:
        # depth dips, so the monotone-rise signature must not match
        query.factory.enabled = lambda: True
        cell.step()
        query.factory.enabled = lambda: False
        recorder.sample()
        cell.insert("sensors", [(3, 47.0), (4, 48.0), (5, 49.0)])
        assert recorder.sample() is None

    def test_stall_reported_once_per_episode(self):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3)
        stall = None
        rounds = 0
        while stall is None:
            cell.insert("sensors", [(rounds, 45.0)])
            stall = recorder.sample()
            rounds += 1
        assert rounds == 3  # exactly one full window
        # detection cleared the window: the stall cannot re-report until
        # a whole new window again shows the signature
        for i in range(recorder.window - 1):
            cell.insert("sensors", [(100 + i, 45.0)])
            assert recorder.sample() is None
        cell.insert("sensors", [(999, 45.0)])
        assert recorder.sample() is not None  # still wedged a window later

    def test_window_validation(self):
        cell, _ = build_wedged_cell()
        with pytest.raises(ValueError):
            FlightRecorder(cell, window=1)

    def test_auto_dump_on_stall(self, tmp_path):
        path = str(tmp_path / "flight.json")
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3, auto_dump_path=path)
        drive_stall(cell, recorder)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["reason"] == "stall"
        assert doc["stalls"][0]["baskets"] == ["sensors"]


class TestDumpContents:
    def test_dump_has_stacks_and_depths(self, tmp_path):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=3)
        stall = drive_stall(cell, recorder)
        assert stall is not None
        path = str(tmp_path / "flight.json")
        doc = recorder.dump(path, reason="stall")
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(doc, default=str))

        # every thread's stack, including this test's own frame
        assert doc["thread_stacks"]
        own = "\n".join(
            line for frames in doc["thread_stacks"].values()
            for line in frames
        )
        assert "test_dump_has_stacks_and_depths" in own

        # the stalled transition's basket depths are in the post-mortem
        assert doc["baskets"]["sensors"]["depth"] == 5
        assert doc["baskets"]["sensors"]["high_water"] == 5
        assert doc["factories"]["q1"]["activations"] == 0
        assert doc["factories"]["q1"]["inputs"][0]["basket"] == "sensors"
        assert doc["transitions"]["q1"]["enabled"] is False
        assert doc["stalls"][0]["baskets"] == ["sensors"]

    def test_dump_includes_spans_and_trace(self, tmp_path):
        cell = DataCell()  # a receptor samples its first batch
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="q1")
        rx = cell.add_receptor("rx", ["sensors"])
        rx.channel.push("1, 45.0")
        cell.run_until_quiescent()
        doc = cell.dump_flight_record(str(tmp_path / "f.json"))
        assert doc["reason"] == "manual"
        assert doc["spans"]["sampled_batches"] == 1
        kinds = {s["cat"] for s in doc["spans"]["finished"]}
        assert {"batch", "receptor", "factory", "emitter"} <= kinds
        assert doc["trace_events"]  # scheduler ring is populated

    def test_dump_embeds_system_stream_tails(self, tmp_path):
        from repro.core.clock import LogicalClock
        from repro.obs.sysstreams import SYS_EVENTS, SYS_METRICS

        clock = LogicalClock()
        cell = DataCell(clock=clock, system_streams=True)
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="q1")
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        clock.advance(1.0)
        cell.run_until_quiescent()  # one sampler tick fills sys.metrics
        cell.trace.record("error", "synthetic", detail="for the dump")
        clock.advance(1.0)
        cell.run_until_quiescent()  # the next tick drains the event

        path = str(tmp_path / "f.json")
        doc = cell.dump_flight_record(path)
        # the post-mortem must survive a JSON round trip intact
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(doc, default=str))

        tails = doc["sys_streams"]
        assert set(tails) == {SYS_METRICS, SYS_EVENTS}
        metrics_tail = tails[SYS_METRICS]
        assert "metric" in metrics_tail["columns"]
        assert metrics_tail["rows"]
        names = {row[metrics_tail["columns"].index("metric")]
                 for row in metrics_tail["rows"]}
        assert any(n.startswith("datacell_") for n in names)
        events_tail = tails[SYS_EVENTS]
        kind_col = events_tail["columns"].index("kind")
        assert "error" in {row[kind_col] for row in events_tail["rows"]}

    def test_dump_without_system_streams_is_empty(self, tmp_path):
        cell, _ = build_wedged_cell()
        doc = cell.dump_flight_record(str(tmp_path / "f.json"))
        assert doc["sys_streams"] == {}

    def test_system_baskets_never_trip_the_stall_detector(self):
        # sys.* baskets fill every tick with nobody consuming them — by
        # design.  The monotone-rise signature must ignore them.
        from repro.core.clock import LogicalClock

        clock = LogicalClock()
        cell = DataCell(clock=clock, system_streams=True)
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="q1")
        recorder = FlightRecorder(cell, window=3)
        for i in range(6):
            cell.insert("sensors", [(i, 45.0)])
            cell.run_until_quiescent()
            clock.advance(1.0)
            cell.run_until_quiescent()  # sys.metrics grows monotonically
            assert recorder.sample() is None
        assert recorder.stalls() == []

    def test_broken_enabled_survives_snapshot(self):
        cell, query = build_wedged_cell()

        def boom():
            raise RuntimeError("broken transition")

        query.factory.enabled = boom
        recorder = FlightRecorder(cell, window=3)
        doc = recorder.snapshot()
        assert doc["transitions"]["q1"]["enabled"] is None


class TestExceptionCapture:
    def test_factory_exception_recorded_and_reraised(self):
        cell = DataCell()
        cell.execute("create basket src (v int)")

        def explode(snapshots):
            raise RuntimeError("plan blew up")

        cell.submit_plan(
            "bad", CallablePlan(explode, default_output="bad_out"),
            ["src"], [("v", AtomType.INT)],
        )
        cell.insert("src", [(1,)])
        with pytest.raises(RuntimeError, match="plan blew up"):
            cell.run_until_quiescent()
        entries = cell.flight.exceptions()
        assert len(entries) == 1
        assert entries[0]["transition"] == "bad"
        assert entries[0]["type"] == "RuntimeError"
        assert any("plan blew up" in line for line in entries[0]["traceback"])
        # the error also lands in the trace ring
        assert any(e.kind == "error" for e in cell.trace.events())

    def test_exception_auto_dump(self, tmp_path):
        path = str(tmp_path / "crash.json")
        cell = DataCell()
        cell.execute("create basket src (v int)")
        cell.flight.auto_dump_path = path

        def explode(snapshots):
            raise ValueError("bad tuple")

        cell.submit_plan(
            "bad", CallablePlan(explode, default_output="bad_out"),
            ["src"], [("v", AtomType.INT)],
        )
        cell.insert("src", [(1,)])
        with pytest.raises(ValueError):
            cell.run_until_quiescent()
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["reason"] == "exception"
        assert doc["exceptions"][0]["type"] == "ValueError"

    def test_exception_log_bounded(self):
        class CrashLoop:
            name, priority, attempts = "t", 0, 0

            def enabled(self):
                return True

            def activate(self):
                self.attempts += 1
                raise RuntimeError(str(self.attempts - 1))

        cell = DataCell()
        cell.scheduler.register(CrashLoop())
        for _ in range(50):
            with pytest.raises(RuntimeError):
                cell.step()
        assert len(cell.trace.events(kind="error")) == 50
        entries = cell.flight.exceptions()
        assert len(entries) == 32
        assert entries[-1]["message"] == "49"
        assert entries[0]["message"] == "18"
        assert set(entries[-1]) == {
            "transition", "type", "message", "traceback", "time",
        }
        assert abs(entries[-1]["time"] - time.time()) < 60.0

    def test_raising_dump_does_not_break_the_firing(self, tmp_path):
        # auto-dump runs as a log subscriber; a dump that fails (here: a
        # path in a missing directory) must not mask the real error
        cell = DataCell()
        cell.execute("create basket src (v int)")
        cell.flight.auto_dump_path = str(tmp_path / "missing" / "f.json")

        def explode(snapshots):
            raise ValueError("bad tuple")

        cell.submit_plan(
            "bad", CallablePlan(explode, default_output="bad_out"),
            ["src"], [("v", AtomType.INT)],
        )
        cell.insert("src", [(1,)])
        with pytest.warns(RuntimeWarning, match="FileNotFoundError"):
            with pytest.raises(ValueError, match="bad tuple"):
                cell.run_until_quiescent()
        assert cell.flight.exceptions()[0]["type"] == "ValueError"


class TestWatchdog:
    def test_watchdog_thread_lifecycle(self):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=2)
        assert not recorder.running
        recorder.start(interval=0.01)
        try:
            assert recorder.running
            deadline = time.monotonic() + 2.0
            while not recorder._samples and time.monotonic() < deadline:
                time.sleep(0.005)
            assert recorder._samples  # it is sampling on its own
        finally:
            recorder.stop()
        assert not recorder.running

    def test_watchdog_detects_stall_in_background(self):
        cell, _ = build_wedged_cell()
        recorder = FlightRecorder(cell, window=2)
        recorder.start(interval=0.01)
        try:
            deadline = time.monotonic() + 2.0
            i = 0
            while not recorder.stalls() and time.monotonic() < deadline:
                cell.insert("sensors", [(i, 45.0)])
                i += 1
                time.sleep(0.01)
        finally:
            recorder.stop()
        assert recorder.stalls()
        assert recorder.stalls()[0]["baskets"] == ["sensors"]
