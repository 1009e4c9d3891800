"""Unit tests for receptors, emitters, channels, and the scheduler."""

import threading
import time

import pytest

from repro.adapters.channels import (
    InMemoryChannel,
    format_tuple,
    parse_tuple_text,
)
from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.emitter import CollectingClient, Emitter
from repro.core.factory import CallablePlan, Factory
from repro.core.receptor import Receptor
from repro.core.scheduler import Scheduler
from repro.errors import AdapterError, SchedulerError
from repro.kernel.join import projection
from repro.kernel.mal import ResultSet
from repro.kernel.select import range_select
from repro.kernel.types import AtomType


@pytest.fixture
def clock():
    return LogicalClock()


class TestWireFormat:
    def test_roundtrip(self):
        row = ("hello, world", 42, None, "back\\slash", "multi\nline")
        text = format_tuple(row)
        fields = parse_tuple_text(text)
        assert fields == ["hello, world", "42", "", "back\\slash", "multi\nline"]

    def test_simple(self):
        assert format_tuple((1, "a")) == "1,a"
        assert parse_tuple_text("1,a") == ["1", "a"]

    def test_null_is_empty_field(self):
        assert format_tuple((None,)) == ""
        assert parse_tuple_text(",") == ["", ""]


class TestChannel:
    def test_fifo(self):
        ch = InMemoryChannel()
        ch.push("a")
        ch.push("b")
        assert ch.poll() == ["a", "b"]
        assert ch.pending() == 0

    def test_poll_limit(self):
        ch = InMemoryChannel()
        ch.push_many(["a", "b", "c"])
        assert ch.poll(2) == ["a", "b"]
        assert ch.pending() == 1

    def test_capacity_drops_oldest(self):
        ch = InMemoryChannel(capacity=2)
        ch.push_many(["a", "b", "c"])
        assert ch.poll() == ["b", "c"]
        assert ch.total_dropped == 1

    def test_closed_rejects_push(self):
        ch = InMemoryChannel()
        ch.close()
        with pytest.raises(AdapterError):
            ch.push("a")


class TestReceptor:
    def test_textual_events(self, clock):
        basket = Basket("s", [("v", AtomType.INT), ("t", AtomType.DBL)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [basket])
        ch.push("1,2.5")
        ch.push("3,4.5")
        assert r.enabled()
        r.activate()
        assert basket.rows() == [(1, 2.5, 0.0), (3, 4.5, 0.0)]
        assert not r.enabled()

    def test_structured_events(self, clock):
        basket = Basket("s", [("v", AtomType.INT)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [basket])
        ch.push((7,))
        r.activate()
        assert basket.rows() == [(7, 0.0)]

    def test_invalid_events_skipped(self, clock):
        """Malformed input must not stop the stream."""
        basket = Basket("s", [("v", AtomType.INT)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [basket])
        ch.push_many(["notanint", "1,2", "5"])
        r.activate()
        assert basket.rows() == [(5, 0.0)]
        assert r.total_invalid == 2

    def test_null_fields(self, clock):
        basket = Basket("s", [("v", AtomType.INT)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [basket])
        ch.push("")
        r.activate()
        assert basket.rows() == [(None, 0.0)]

    def test_multiple_targets_replicate(self, clock):
        """Separate-baskets replication at the receptor."""
        b1 = Basket("b1", [("v", AtomType.INT)], clock)
        b2 = Basket("b2", [("v", AtomType.INT)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [b1, b2])
        ch.push("1")
        r.activate()
        assert b1.count == 1 and b2.count == 1

    def test_schema_mismatch_rejected(self, clock):
        b1 = Basket("b1", [("v", AtomType.INT)], clock)
        b2 = Basket("b2", [("v", AtomType.DBL)], clock)
        with pytest.raises(AdapterError):
            Receptor("r", InMemoryChannel(), [b1, b2])

    def test_batch_size_respected(self, clock):
        basket = Basket("s", [("v", AtomType.INT)], clock)
        ch = InMemoryChannel()
        r = Receptor("r", ch, [basket], batch_size=2)
        ch.push_many(["1", "2", "3"])
        r.activate()
        assert basket.count == 2
        assert ch.pending() == 1

    def test_needs_targets(self):
        with pytest.raises(AdapterError):
            Receptor("r", InMemoryChannel(), [])


class TestEmitter:
    def test_delivers_and_empties(self, clock):
        basket = Basket("out", [("v", AtomType.INT)], clock)
        client = CollectingClient()
        e = Emitter("e", basket)
        e.subscribe(client)
        basket.insert_rows([(1,), (2,)])
        assert e.enabled()
        e.activate()
        assert client.rows == [(1,), (2,)]
        assert basket.count == 0
        assert not e.enabled()

    def test_time_column_stripped_by_default(self, clock):
        clock.advance(3.0)
        basket = Basket("out", [("v", AtomType.INT)], clock)
        client = CollectingClient()
        e = Emitter("e", basket)
        e.subscribe(client)
        basket.insert_rows([(1,)])
        e.activate()
        assert client.rows == [(1,)]

    def test_include_time(self, clock):
        clock.advance(3.0)
        basket = Basket("out", [("v", AtomType.INT)], clock)
        client = CollectingClient()
        e = Emitter("e", basket, include_time=True)
        e.subscribe(client)
        basket.insert_rows([(1,)])
        e.activate()
        assert client.rows == [(1, 3.0)]

    def test_channel_subscription_textual(self, clock):
        basket = Basket("out", [("v", AtomType.INT), ("s", AtomType.STR)], clock)
        sink = InMemoryChannel()
        e = Emitter("e", basket)
        e.subscribe_channel(sink)
        basket.insert_rows([(1, "x")])
        e.activate()
        assert sink.poll() == ["1,x"]

    def test_multiple_subscribers(self, clock):
        basket = Basket("out", [("v", AtomType.INT)], clock)
        c1, c2 = CollectingClient(), CollectingClient()
        e = Emitter("e", basket)
        e.subscribe(c1)
        e.subscribe(c2)
        basket.insert_rows([(1,)])
        e.activate()
        assert c1.rows == c2.rows == [(1,)]

    def test_unsubscribe_stops_delivery(self, clock):
        """Regression: a detached client receives no later firings."""
        basket = Basket("out", [("v", AtomType.INT)], clock)
        kept, gone = CollectingClient(), CollectingClient()
        e = Emitter("e", basket)
        e.subscribe(kept)
        e.subscribe(gone)
        basket.insert_rows([(1,)])
        e.activate()
        assert e.unsubscribe(gone) is True
        assert e.unsubscribe(gone) is False  # second detach is a no-op
        assert e.subscriber_count == 1
        basket.insert_rows([(2,)])
        e.activate()
        assert kept.rows == [(1,), (2,)]
        assert gone.rows == [(1,)]

    def test_unsubscribe_channel(self, clock):
        basket = Basket("out", [("v", AtomType.INT)], clock)
        sink = InMemoryChannel()
        e = Emitter("e", basket)
        e.subscribe_channel(sink)
        basket.insert_rows([(1,)])
        e.activate()
        assert e.unsubscribe_channel(sink) is True
        assert e.unsubscribe_channel(sink) is False
        basket.insert_rows([(2,)])
        e.activate()
        assert sink.poll() == ["1"]

    def test_closed_channel_detaches_itself(self, clock):
        basket = Basket("out", [("v", AtomType.INT)], clock)
        sink = InMemoryChannel()
        e = Emitter("e", basket)
        e.subscribe_channel(sink)
        sink.close()
        basket.insert_rows([(1,)])
        e.activate()
        assert e.subscriber_count == 0
        assert e.channels_detached == 1

    def test_note_dropped_accounting(self, clock):
        basket = Basket("out", [("v", AtomType.INT)], clock)
        e = Emitter("e", basket)
        e.note_dropped(3)
        e.note_dropped(2)
        assert e.deliveries_dropped == 5


class _BatchConsumer:
    def __init__(self):
        self.batches = []

    def deliver_batch(self, batch):
        self.batches.append(batch)


class TestDeliveryBatch:
    """One columnar batch per firing; python rows built at most once."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        import repro.core.emitter as emitter_module

        calls = []
        real = emitter_module.python_values

        def counting(atom, tail):
            calls.append(atom)
            return real(atom, tail)

        monkeypatch.setattr(emitter_module, "python_values", counting)
        return calls

    def _emitter(self, clock):
        basket = Basket(
            "out", [("v", AtomType.INT), ("x", AtomType.DBL)], clock
        )
        return basket, Emitter("e", basket)

    def test_batch_consumers_build_no_rows(self, clock, conversions):
        basket, e = self._emitter(clock)
        consumer, collector = _BatchConsumer(), CollectingClient()
        e.subscribe(consumer)
        e.subscribe(collector)
        basket.insert_rows([(1, None), (None, 2.5)])
        e.activate()
        assert conversions == []
        (batch,) = consumer.batches
        assert batch.names == ["v", "x"] and len(batch) == 2
        assert batch.tails[0].tolist() == [1, -(2**31)]  # NIL stays a sentinel
        assert collector.rows == [(1, None), (None, 2.5)]
        assert collector.take() == [(1, None), (None, 2.5)]
        assert len(conversions) == 2  # one per column, built once
        assert collector.take() == []

    def test_row_callbacks_and_fetch_share_one_materialisation(
        self, clock, conversions
    ):
        basket, e = self._emitter(clock)
        first, second, collector = [], [], CollectingClient()
        e.subscribe(collector)
        e.subscribe(first.append)
        e.subscribe(second.append)
        basket.insert_rows([(1, 0.5)])
        e.activate()
        assert first[0] is second[0] == [(1, 0.5)]
        assert collector.take() == [(1, 0.5)]
        assert len(conversions) == 2

    def test_unsubscribe_matches_by_equality(self, clock):
        basket, e = self._emitter(clock)
        out = []
        e.subscribe(out.extend)
        assert e.unsubscribe(out.extend) is True  # a fresh bound method
        assert e.subscriber_count == 0

    def test_high_water_filter_applies_to_the_batch(self, clock):
        """Exactly-once after recovery: rows at or below the mark are
        dropped once, for batch consumers and row callbacks alike."""
        basket, e = self._emitter(clock)
        consumer, rows = _BatchConsumer(), []
        e.subscribe(consumer)
        e.subscribe(rows.extend)
        e.high_water_seq = 0
        basket.insert_rows([(1, 1.0), (2, 2.0)])
        e.activate()
        assert consumer.batches[0].tails[0].tolist() == [2]
        assert rows == [(2, 2.0)]
        assert e.total_delivered == 1 and e.high_water_seq == 1


def _pipeline(clock):
    """Figure 1: receptor -> B1 -> factory -> B2 -> emitter."""
    b1 = Basket("b1", [("v", AtomType.INT)], clock)
    b2 = Basket("b2", [("v", AtomType.INT)], clock)
    ch = InMemoryChannel()

    def plan(snaps):
        snap = snaps["b1"]
        col = snap.column("v")
        cands = range_select(col, 10, 20)
        return ResultSet(["v"], [projection(cands, col)])

    receptor = Receptor("r", ch, [b1])
    factory = Factory("q", CallablePlan(plan, default_output="b2"), [b1], [b2])
    client = CollectingClient()
    emitter = Emitter("e", b2)
    emitter.subscribe(client)
    return ch, receptor, factory, emitter, client


class TestScheduler:
    def test_figure1_pipeline_sync(self, clock):
        ch, receptor, factory, emitter, client = _pipeline(clock)
        s = Scheduler()
        for t in (receptor, factory, emitter):
            s.register(t)
        ch.push_many(["5", "15", "25", "12"])
        fired = s.run_until_quiescent()
        assert fired >= 3
        assert client.rows == [(15,), (12,)]

    def test_duplicate_registration(self, clock):
        _, receptor, _, _, _ = _pipeline(clock)
        s = Scheduler()
        s.register(receptor)
        with pytest.raises(SchedulerError):
            s.register(receptor)

    def test_unregister(self, clock):
        ch, receptor, factory, emitter, client = _pipeline(clock)
        s = Scheduler()
        for t in (receptor, factory, emitter):
            s.register(t)
        s.unregister("q")
        ch.push("15")
        s.run_until_quiescent()
        assert client.rows == []

    def test_get_unknown(self):
        with pytest.raises(SchedulerError):
            Scheduler().get("ghost")

    def test_priority_order_receptor_first(self, clock):
        """Receptors (prio 10) fire before factories before emitters."""
        ch, receptor, factory, emitter, client = _pipeline(clock)
        s = Scheduler()
        for t in (emitter, factory, receptor):  # register in reverse
            s.register(t)
        ch.push("15")
        fired_in_one_step = s.step()
        # priority order (receptor > factory > emitter) plus per-firing
        # enablement re-checks move the tuple through the whole chain in
        # a single scheduler iteration
        assert fired_in_one_step == 3
        assert client.rows == [(15,)]

    def test_step_rejected_while_threaded(self, clock):
        s = Scheduler()
        s.start()
        try:
            with pytest.raises(SchedulerError):
                s.step()
        finally:
            s.stop()

    def test_threaded_mode_end_to_end(self, clock):
        ch, receptor, factory, emitter, client = _pipeline(clock)
        s = Scheduler()
        for t in (receptor, factory, emitter):
            s.register(t)
        s.start()
        try:
            # one dispatcher drives all three transitions
            assert [
                t.name for t in threading.enumerate()
                if t.name.startswith("datacell-")
            ] == ["datacell-scheduler"]
            for v in ("5", "15", "25", "12", "18"):
                ch.push(v)
            deadline = time.time() + 5
            while len(client.rows) < 3 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            s.stop()
        assert sorted(client.rows) == [(12,), (15,), (18,)]

    def test_threaded_failure_stops_only_that_transition(self, clock):
        ch, receptor, factory, emitter, client = _pipeline(clock)
        calls = []

        class Boom:
            name, priority = "boom", 20

            def enabled(self):
                return True

            def activate(self):
                calls.append(1)
                raise RuntimeError("boom")

        class Broken:
            name, priority = "broken", 20

            def enabled(self):
                raise RuntimeError("broken")

        s = Scheduler()
        for t in (Boom(), Broken(), receptor, factory, emitter):
            s.register(t)
        s.start()
        try:
            for v in ("15", "18"):
                ch.push(v)
            deadline = time.time() + 5
            while len(client.rows) < 2 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            assert s.stop() == []
        assert sorted(client.rows) == [(15,), (18,)]
        assert calls == [1]  # no longer driven once it raised
        assert sorted(
            e.component for e in s.trace.events(kind="error")
        ) == ["boom", "broken"]

    def test_stop_joins_threads(self, clock):
        s = Scheduler()
        s.start()
        s.stop()
        assert not s.running
        before = threading.active_count()
        # restart is allowed after a stop
        s.start()
        s.stop()
        assert threading.active_count() <= before + 1
