"""Session-layer unit tests: the backpressure dial and bindings.

Each of the three queue-full paths — ``block`` (wait, escalate on
timeout), ``drop-oldest`` (shed), ``disconnect`` (close) — is pinned
here without sockets; the TCP integration tests only have to prove the
transport wiring.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.basket import Basket
from repro.core.emitter import DeliveryBatch, Emitter
from repro.core.scheduler import Scheduler
from repro.errors import ServerError
from repro.kernel.types import AtomType
from repro.server import session as session_module
from repro.server.protocol import (
    Command,
    FrameDecoder,
    data_message,
    encode_message,
)
from repro.server.session import (
    ClientSession,
    OutputQueue,
    ServerConfig,
    SubscriptionBinding,
)


def _decode(frames):
    decoder = FrameDecoder()
    out = []
    for frame in frames:
        out.extend(decoder.feed(frame))
    return out


def _batch(values):
    """A one-INT-column emitted batch ``v``."""
    return DeliveryBatch(
        ["v"], [AtomType.INT], [np.asarray(values, dtype=np.int32)]
    )


class TestServerConfig:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ServerError, match="backpressure"):
            ServerConfig(backpressure="yolo").validate()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ServerError, match="queue_frames"):
            ServerConfig(queue_frames=0).validate()


class TestOutputQueueBlock:
    """``block`` holds a full queue's emitter back (the queue is its
    gate) instead of parking a thread in ``offer_data``."""

    def _gated(self, capacity, block_timeout=10.0):
        basket = Basket("q_out", [("v", AtomType.INT)])
        emitter = Emitter("q_e", basket)
        config = ServerConfig(
            backpressure="block", queue_frames=capacity,
            block_timeout=block_timeout,
        )
        session = ClientSession(1, config)
        emitter.subscribe(
            SubscriptionBinding(session, "q", [("v", AtomType.INT)])
        )
        sched = Scheduler()
        sched.register(emitter)
        return basket, emitter, session, sched

    def test_blocks_until_drained(self):
        basket, emitter, session, sched = self._gated(capacity=2)
        for value in (1, 2, 3):
            basket.insert_rows([(value,)])
            sched.run_until_quiescent()
        # two frames fill the queue; the third batch waits in the basket
        assert session.queue.data_depth == 2 and basket.count == 1
        assert not emitter.enabled() and session.queue.blocks == 1
        assert sched.run_until_quiescent() == 0
        assert len(session.queue.drain()) == 2  # freed room wakes it
        assert sched.run_until_quiescent() == 1
        (message,) = _decode(session.queue.drain())
        assert message.rows() == [(3,)]

    def test_block_timeout_escalates_to_disconnect(self):
        armed, closed = [], []
        config = ServerConfig(queue_frames=1, block_timeout=0.05)
        session = ClientSession(
            1, config, request_close=closed.append,
            on_full=lambda: armed.append(1),
        )
        frame = encode_message(
            data_message("q", [("v", AtomType.INT)], [np.array([1], np.int32)])
        )
        assert session.check_block_timeout() is None  # not full
        assert session.deliver_data(frame, 1) == "queued"
        assert armed == [1]  # the transport starts its timer
        assert 0 < session.check_block_timeout() <= 0.05
        time.sleep(0.06)
        assert session.check_block_timeout() == 0
        assert closed == ["backpressure"]
        errors = [
            m for m in _decode(session.queue.drain())
            if m.command is Command.ERROR
        ]
        assert [m.meta["code"] for m in errors] == ["backpressure"]
        assert session.dropped_frames == 0  # nothing shed, just refused

    def test_close_releases_blocked_producer(self):
        basket, emitter, session, sched = self._gated(capacity=1)
        for value in (1, 2):
            basket.insert_rows([(value,)])
            sched.run_until_quiescent()
        assert basket.count == 1 and not emitter.enabled()
        session.close()  # a closed queue gates nothing
        assert sched.run_until_quiescent() == 1
        assert basket.count == 0


class TestOutputQueueDropOldest:
    def test_sheds_oldest_data_frame(self):
        q = OutputQueue("drop-oldest", capacity=2, block_timeout=1.0)
        q.offer_data(b"a", 3)
        q.offer_data(b"b", 4)
        assert q.offer_data(b"c", 5) == "dropped"
        assert q.drain() == [b"b", b"c"]
        assert q.dropped_frames == 1
        assert q.dropped_rows == 3

    def test_control_frames_survive_the_shed(self):
        q = OutputQueue("drop-oldest", capacity=1, block_timeout=1.0)
        q.offer_control(b"ctl")
        q.offer_data(b"a", 1)
        q.offer_data(b"b", 1)
        assert q.drain() == [b"ctl", b"b"]


class TestOutputQueueDisconnect:
    def test_full_queue_demands_disconnect(self):
        q = OutputQueue("disconnect", capacity=1, block_timeout=1.0)
        assert q.offer_data(b"a", 1) == "queued"
        assert q.offer_data(b"b", 1) == "disconnect"
        assert q.drain() == [b"a"]  # the overflowing frame was refused


class TestOutputQueueCommon:
    def test_control_bypasses_the_bound(self):
        q = OutputQueue("disconnect", capacity=1, block_timeout=1.0)
        q.offer_data(b"a", 1)
        for _ in range(5):
            assert q.offer_control(b"ctl") == "queued"
        assert q.depth == 6

    def test_closed_refuses_everything(self):
        q = OutputQueue("block", capacity=1, block_timeout=1.0)
        q.close()
        assert q.offer_data(b"a", 1) == "closed"
        assert q.offer_control(b"c") == "closed"

    def test_drain_limit(self):
        q = OutputQueue("block", capacity=10, block_timeout=1.0)
        for i in range(5):
            q.offer_data(bytes([i]), 1)
        assert len(q.drain(limit=2)) == 2
        assert q.depth == 3


class TestClientSession:
    def _session(self, policy, capacity=1):
        config = ServerConfig(
            backpressure=policy, queue_frames=capacity, block_timeout=0.05
        )
        woke, closed = [], []
        session = ClientSession(
            1,
            config,
            tenant="acme",
            wake=lambda: woke.append(1),
            request_close=closed.append,
        )
        return session, woke, closed

    def test_disconnect_path_sends_error_then_closes(self):
        from repro.server.protocol import data_message, encode_message

        frame = encode_message(
            data_message(
                "q", [("v", AtomType.INT)], [np.array([1, 2], np.int32)]
            )
        )
        session, _, closed = self._session("disconnect")
        assert session.deliver_data(frame, 2) == "queued"
        assert session.deliver_data(frame, 2) == "disconnect"
        assert closed == ["backpressure"]
        messages = _decode(session.queue.drain())
        errors = [m for m in messages if m.command is Command.ERROR]
        assert len(errors) == 1
        assert errors[0].meta["code"] == "backpressure"
        assert session.rows_out == 2  # the refused frame is not counted

    def test_stats_shape(self):
        session, _, _ = self._session("block", capacity=4)
        session.deliver_data(b"a", 3)
        stats = session.stats()
        assert stats["tenant"] == "acme"
        assert stats["rows_out"] == 3
        assert stats["queue_depth"] == 1
        assert stats["dropped_frames"] == 0


class _FakeEmitter:
    def __init__(self):
        self.dropped = 0

    def note_dropped(self, count):
        self.dropped += count


class TestSubscriptionBinding:
    COLUMNS = [("v", AtomType.INT)]

    def test_delivers_encoded_data_frames(self):
        session = ClientSession(1, ServerConfig())
        binding = SubscriptionBinding(session, "q1", self.COLUMNS)
        binding.deliver_batch(_batch([1, 2]))
        (message,) = _decode(session.queue.drain())
        assert message.command is Command.DATA
        assert message.meta["query"] == "q1"
        assert message.rows() == [(1,), (2,)]
        assert binding.deliveries == 1
        assert binding.rows_delivered == 2

    def test_empty_delivery_is_a_noop(self):
        session = ClientSession(1, ServerConfig())
        binding = SubscriptionBinding(session, "q1", self.COLUMNS)
        binding.deliver_batch(_batch([]))
        assert session.queue.depth == 0

    def test_drop_accounting_reaches_emitter_and_callback(self):
        config = ServerConfig(backpressure="drop-oldest", queue_frames=1)
        session = ClientSession(1, config)
        emitter = _FakeEmitter()
        drops = []
        binding = SubscriptionBinding(
            session,
            "q1",
            self.COLUMNS,
            emitter=emitter,
            on_drop=lambda q, rows, outcome: drops.append((q, rows, outcome)),
        )
        binding.deliver_batch(_batch([1]))
        binding.deliver_batch(_batch([2, 3]))  # sheds the first frame
        assert drops == [("q1", 2, "dropped")]
        assert emitter.dropped == 2
        assert session.dropped_frames == 1

    def test_closed_session_swallows_deliveries(self):
        session = ClientSession(1, ServerConfig())
        binding = SubscriptionBinding(session, "q1", self.COLUMNS)
        session.close()
        binding.deliver_batch(_batch([1]))  # must not raise into the emitter
        assert binding.deliveries == 0


class TestSharedEncode:
    """One emitted batch is encoded once; every session gets those bytes."""

    COLUMNS = [("v", AtomType.INT), ("s", AtomType.STR)]

    def _emitter(self):
        basket = Basket("q_out", self.COLUMNS)
        return basket, Emitter("q_e", basket)

    def _bind(self, emitter, config):
        session = ClientSession(1, config)
        binding = SubscriptionBinding(
            session, "q", self.COLUMNS, emitter=emitter
        )
        emitter.subscribe(binding)
        return session

    def test_sessions_share_one_encoded_frame(self, monkeypatch):
        calls = []
        real = session_module.encode_message

        def counting(message):
            calls.append(message.command)
            return real(message)

        monkeypatch.setattr(session_module, "encode_message", counting)
        basket, emitter = self._emitter()
        a = self._bind(emitter, ServerConfig())
        b = self._bind(emitter, ServerConfig())
        basket.insert_rows([(1, "x"), (2, None)])
        emitter.activate()
        assert calls == [Command.DATA]
        frames_a, frames_b = a.queue.drain(), b.queue.drain()
        assert frames_a == frames_b and len(frames_a) == 1
        (message,) = _decode(frames_a)
        assert message.rows() == [(1, "x"), (2, None)]

    def test_drop_oldest_drops_stay_per_session(self):
        basket, emitter = self._emitter()
        fast = self._bind(emitter, ServerConfig())
        slow = self._bind(
            emitter, ServerConfig(backpressure="drop-oldest", queue_frames=1)
        )
        for value in (1, 2, 3):
            basket.insert_rows([(value, "x"), (value, "y")])
            emitter.activate()
            fast.queue.drain()  # only the fast client keeps up
        assert fast.dropped_frames == 0
        assert slow.dropped_frames == 2
        assert slow.queue.dropped_rows == 4
        assert emitter.deliveries_dropped == 4
        (message,) = _decode(slow.queue.drain())
        assert message.rows() == [(3, "x"), (3, "y")]
