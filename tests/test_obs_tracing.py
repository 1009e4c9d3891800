"""Tests for the bounded trace ring and its scheduler integration."""

import sys
import threading

import pytest

from repro.core.basket import Basket
from repro.core.factory import CallablePlan, ConsumeMode, Factory, InputBinding
from repro.core.scheduler import Scheduler
from repro.kernel.mal import ResultSet
from repro.kernel.types import AtomType
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceEvent, TraceLog


class TestTraceLog:
    def test_record_and_read(self):
        log = TraceLog()
        log.record("fire", "q1", tuples_in=3, elapsed=0.001)
        (event,) = log.events()
        assert event.kind == "fire"
        assert event.component == "q1"
        assert event.detail["tuples_in"] == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceLog(capacity=0)

    def test_ring_evicts_oldest(self):
        log = TraceLog(capacity=5)
        for i in range(12):
            log.record("fire", f"t{i}")
        assert len(log) == 5
        assert log.total_recorded == 12
        assert [e.component for e in log.events()] == [
            "t7", "t8", "t9", "t10", "t11",
        ]

    def test_filtering(self):
        log = TraceLog()
        log.record("fire", "a")
        log.record("register", "a")
        log.record("fire", "b")
        assert len(log.events(kind="fire")) == 2
        assert len(log.events(component="a")) == 2
        assert len(log.events(kind="fire", component="a")) == 1

    def test_clear(self):
        log = TraceLog()
        log.record("fire", "a")
        log.clear()
        assert len(log) == 0
        assert log.total_recorded == 1  # lifetime count survives

    def test_render(self):
        log = TraceLog()
        assert log.render() == "(trace empty)"
        log.record("fire", "q1", elapsed=0.25)
        text = log.render()
        assert "fire" in text and "q1" in text and "elapsed=0.25" in text

    def test_event_render_formats_floats(self):
        event = TraceEvent(1.0, "fire", "q", {"elapsed": 0.123456789})
        assert "elapsed=0.123457" in event.render()

    def test_concurrent_record(self):
        log = TraceLog(capacity=1000)
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(500):
                log.record("fire", "t")

        pool = [threading.Thread(target=work) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(log) == 1000  # ring stayed bounded under contention

    def test_events_while_another_thread_records(self):
        """A reader (the dashboard, a flight dump, the Chrome export)
        snapshots the ring while the dispatcher appends to it."""
        log = TraceLog(capacity=256)
        done = threading.Event()

        def writer():
            while not done.is_set():
                log.record("fire", "t", tuples_in=1, tuples_out=1,
                           elapsed=0.0)

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread.start()
        errors = []
        try:
            for _ in range(2000):
                try:
                    log.events()
                except RuntimeError as exc:
                    errors.append(exc)
        finally:
            done.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []


class TestKeptEvents:
    def test_fire_is_ring_only(self):
        log = TraceLog(capacity=4)
        log.record("checkpoint", "durability", id=1)
        for i in range(10):
            log.record("fire", f"t{i}")
        assert [e.kind for e in log.events()] == ["fire"] * 4
        events, cursor = log.since()
        assert [(e.kind, e.detail) for e in events] == [
            ("checkpoint", {"id": 1})
        ]
        assert cursor == log.total_kept == 1

    def test_since_is_a_cursor(self):
        log = TraceLog()
        log.record("register", "a")
        _, cursor = log.since()
        log.record("fire", "a")
        log.record("unregister", "a")
        events, cursor = log.since(cursor)
        assert [e.kind for e in events] == ["unregister"]
        assert log.since(cursor) == ([], cursor)

    def test_kept_retention_is_bounded(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.record("stall", f"b{i}")
        events, cursor = log.since()
        assert [e.component for e in events] == ["b2", "b3", "b4"]
        assert cursor == 5

    def test_subscribers_see_every_kind_but_fire(self):
        log = TraceLog()
        seen = []
        unsubscribe = log.subscribe(seen.append)
        log.record("fire", "q")
        log.record("error", "q", type="ValueError")
        assert [(e.kind, e.component) for e in seen] == [("error", "q")]
        unsubscribe()
        log.record("stall", "b")
        assert len(seen) == 1

    def test_raising_subscriber_does_not_break_record(self):
        log = TraceLog()
        seen = []

        def broken(event):
            raise RuntimeError("consumer bug")

        log.subscribe(broken)
        log.subscribe(seen.append)
        with pytest.warns(RuntimeWarning, match="consumer bug"):
            log.record("checkpoint", "durability")
        assert [e.kind for e in seen] == ["checkpoint"]
        assert log.total_kept == 1


def passthrough_network(trace):
    """in -> copy factory -> out, driven by a private scheduler."""
    metrics = MetricsRegistry()
    b_in = Basket("b_in", [("v", AtomType.INT)], metrics=metrics)
    b_out = Basket("b_out", [("v", AtomType.INT)], metrics=metrics)

    def copy(snapshots):
        snap = snapshots["b_in"]
        names = [n for n in snap.names if n != "dc_time"]
        return {"b_out": ResultSet(names, [snap.column(n) for n in names])}

    factory = Factory(
        "copy",
        CallablePlan(copy, name="copy"),
        [InputBinding(b_in, ConsumeMode.ALL)],
        [b_out],
        metrics=metrics,
    )
    scheduler = Scheduler(metrics=metrics, trace=trace)
    scheduler.register(factory)
    return scheduler, b_in, b_out


class TestSchedulerTraceIntegration:
    def test_register_and_fire_traced(self):
        trace = TraceLog()
        scheduler, b_in, _ = passthrough_network(trace)
        assert [e.kind for e in trace.events()] == ["register"]
        b_in.insert_rows([(1,), (2,)])
        scheduler.run_until_quiescent()
        fires = trace.events(kind="fire", component="copy")
        assert len(fires) == 1
        assert fires[0].detail["tuples_in"] == 2
        assert fires[0].detail["elapsed"] > 0

    def test_unregister_traced(self):
        trace = TraceLog()
        scheduler, _, _ = passthrough_network(trace)
        scheduler.unregister("copy")
        assert [e.kind for e in trace.events()] == ["register", "unregister"]

    def test_threaded_mode_traces_fires(self):
        trace = TraceLog()
        scheduler, b_in, b_out = passthrough_network(trace)
        b_in.insert_rows([(i,) for i in range(10)])
        scheduler.start()
        try:
            deadline = 100
            while b_out.total_in < 10 and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
        finally:
            scheduler.stop()
        assert b_out.total_in == 10
        assert len(trace.events(kind="fire", component="copy")) >= 1
