"""End-to-end tests of the network front door over real sockets.

Each test boots one threaded engine plus its server on an ephemeral
port, drives it with the synchronous :class:`DataCellClient` (or a raw
socket for the WebSocket and protocol-violation cases), and shuts the
whole stack down — the conftest thread-leak fixture verifies nothing
(including ``datacell-server-loop``) survives.
"""

import socket
import struct
import threading
import time

import pytest

from repro import DataCell, LogicalClock
from repro.durability import DurabilityConfig
from repro.errors import ServerError
from repro.kernel.types import INT_NIL, AtomType
from repro.server.client import DataCellClient
from repro.server.protocol import (
    Command,
    FrameDecoder,
    Message,
    encode_message,
)
from repro.server.session import ServerConfig
from repro.server.ws import OP_BINARY, WebSocketCodec

TRADE_COLUMNS = [("price", AtomType.INT), ("sym", AtomType.STR)]
BIG_SQL = (
    "select t.price, t.sym from "
    "[select * from trades where trades.price > 100] as t"
)


def _boot(config=None, **cell_kwargs):
    cell = DataCell(clock=LogicalClock(), **cell_kwargs)
    cell.execute("create basket trades (price int, sym str)")
    cell.start()
    server = cell.serve(config=config)
    return cell, server


def test_full_lifecycle_over_tcp():
    cell, server = _boot()
    try:
        host, port = server.address
        with DataCellClient(host, port, tenant="acme") as db:
            assert db.server_meta["backpressure"] == "block"
            assert db.server_meta["tenant"] == "acme"
            qname = db.subscribe(BIG_SQL, name="big")
            assert qname == "big"
            assert db.columns["big"] == TRADE_COLUMNS
            ack = db.insert(
                "trades", TRADE_COLUMNS, [(120, "X"), (90, "Y"), (101, "Z")]
            )
            assert ack["rows"] == 3
            rows = db.poll("big", timeout=10.0, min_rows=2)
            assert sorted(rows) == [(101, "Z"), (120, "X")]
            assert db.ping() < 10.0
            db.unsubscribe("big")

            stats = cell.stats()["server"]
            assert stats["sessions_open"] == 1
            assert stats["ingest"]["applied_rows"] == 3
            assert stats["dropped_frames"] == 0
    finally:
        assert cell.stop() == []
    # session-owned query is torn down with the session
    assert cell.continuous_queries() == []


def test_null_numeric_columns_reach_the_client():
    """A delivered NULL INT and NULL DBL arrive as ``None``: DATA frames
    carry the tails' sentinels instead of re-packing python ``None``."""
    cell = DataCell(clock=LogicalClock())
    cell.execute("create basket readings (a int, b double)")
    cell.start()
    server = cell.serve()
    columns = [("a", AtomType.INT), ("b", AtomType.DBL)]
    try:
        with DataCellClient(*server.address) as db:
            db.subscribe(
                "select r.a, r.b from [select * from readings] as r",
                name="nulls",
            )
            db.insert("readings", columns, [(INT_NIL, float("nan")), (1, 2.0)])
            rows = db.poll("nulls", timeout=5.0, min_rows=2)
            assert rows == [(None, None), (1, 2.0)]
    finally:
        cell.stop()


def test_create_basket_over_the_wire():
    cell, server = _boot()
    try:
        with DataCellClient(*server.address) as db:
            db.create("create basket quotes (bid int)")
            db.insert("quotes", [("bid", AtomType.INT)], [(5,)])
            deadline = time.monotonic() + 10
            while cell.basket("quotes").total_in < 1:
                if time.monotonic() > deadline:
                    pytest.fail("ingest never reached the basket")
                time.sleep(0.01)
            with pytest.raises(ServerError, match="create"):
                db.create("select * from quotes")  # DML may not cross
    finally:
        cell.stop()


def test_two_sessions_fan_out_one_query():
    cell, server = _boot()
    query = cell.submit_continuous(BIG_SQL, name="big")
    # the handle's own fetch() collector counts as one subscriber
    baseline = query.emitter.subscriber_count
    try:
        host, port = server.address
        with DataCellClient(host, port) as a, DataCellClient(host, port) as b:
            assert a.subscribe(query="big") == "big"
            assert b.subscribe(query="big") == "big"
            a.insert("trades", TRADE_COLUMNS, [(150, "A")])
            assert a.poll("big", timeout=10.0) == [(150, "A")]
            assert b.poll("big", timeout=10.0) == [(150, "A")]
    finally:
        cell.stop()
    # attached (not owned) subscriptions leave the query standing
    assert [q.name for q in cell.continuous_queries()] == ["big"]
    assert query.emitter.subscriber_count == baseline


def test_unknown_basket_and_unknown_query_errors():
    cell, server = _boot()
    try:
        with DataCellClient(*server.address) as db:
            with pytest.raises(ServerError, match="unknown-basket"):
                db.insert("ghost", TRADE_COLUMNS, [(1, "x")])
            with pytest.raises(ServerError, match="subscribe"):
                db.subscribe(query="ghost")
            with pytest.raises(ServerError, match="unknown-subscription"):
                db.unsubscribe("ghost")
            assert db.ping() < 10.0  # command errors don't kill the session
    finally:
        cell.stop()


def test_hello_gate_and_version_check():
    cell, server = _boot()
    try:
        host, port = server.address
        # a frame before HELLO is refused and the session is closed
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(encode_message(Message(Command.PING, {})))
            decoder = FrameDecoder()
            messages = decoder.feed(sock.recv(65536))
            assert messages[0].command is Command.ERROR
            assert messages[0].meta["code"] == "hello-required"
            assert sock.recv(65536) == b""  # server closed
        # a wrong protocol version is refused at HELLO
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                encode_message(Message(Command.HELLO, {"version": 99}))
            )
            messages = FrameDecoder().feed(sock.recv(65536))
            assert messages[0].meta["code"] == "version"
    finally:
        cell.stop()


def test_tenant_session_cap_refuses_hello():
    cell, server = _boot(config=ServerConfig(max_sessions_per_tenant=1))
    try:
        host, port = server.address
        with DataCellClient(host, port, tenant="acme"):
            with pytest.raises(ServerError, match="session cap"):
                DataCellClient(host, port, tenant="acme").connect()
            # other tenants are unaffected
            with DataCellClient(host, port, tenant="beta") as db:
                assert db.ping() < 10.0
    finally:
        cell.stop()


def test_budget_breach_throttles_tenant_ingest():
    cell, server = _boot(config=ServerConfig(admission_cooldown=0.4))
    try:
        host, port = server.address
        with DataCellClient(host, port, tenant="acme", timeout=30.0) as db:
            db.insert("trades", TRADE_COLUMNS, [(1, "a")])
            started = time.monotonic()
            server.throttle_tenant("acme", 0.5)
            # the reader is already parked in read(): the first frame
            # slips through, the *next* read boundary observes the
            # throttle and pauses
            db.insert("trades", TRADE_COLUMNS, [(2, "b")])
            db.insert("trades", TRADE_COLUMNS, [(3, "c")])
            assert time.monotonic() - started >= 0.3  # reader was paused
            assert server.tenants_throttled == 1
    finally:
        cell.stop()


def test_shutdown_order_is_server_scheduler_durability_httpd(tmp_path):
    cell = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path),
    )
    cell.execute("create basket trades (price int, sym str)")
    cell.start()
    cell.serve()
    cell.serve_http()
    assert cell.stop() == []
    stages = [
        e.detail["stage"]
        for e in cell.trace.events()
        if e.kind == "shutdown"
    ]
    assert stages == ["server", "scheduler", "durability", "httpd"]
    assert cell.server is None


def test_crash_recovery_with_server_attached(tmp_path):
    """Rows ingested over the wire recover exactly like receptor rows."""
    cell = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path, fsync="always"),
    )
    cell.execute("create basket trades (price int, sym str)")
    query = cell.submit_continuous(BIG_SQL, name="big")
    delivered = []
    query.subscribe(delivered.extend)
    cell.start()
    server = cell.serve()
    with DataCellClient(*server.address) as db:
        db.insert("trades", TRADE_COLUMNS, [(120, "X"), (90, "Y")])
        deadline = time.monotonic() + 10
        while len(delivered) < 1:
            if time.monotonic() > deadline:
                pytest.fail("no delivery before the crash")
            time.sleep(0.01)
    cell.stop()

    recovered = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path, fsync="always"),
    )
    recovered.execute("create basket trades (price int, sym str)")
    requery = recovered.submit_continuous(BIG_SQL, name="big")
    redelivered = []
    requery.subscribe(redelivered.extend)
    recovered.recover()
    recovered.run_until_quiescent()
    # replay reconstructs the pre-crash state: the filtered row was
    # already delivered (exactly-once), the basket history matches
    assert redelivered == []
    assert recovered.basket("trades").total_in == 2
    assert recovered.stats()["durability"]["recovered"] is True


def test_websocket_upgrade_speaks_the_same_frames():
    cell, server = _boot()
    try:
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"GET / HTTP/1.1\r\n"
                b"Host: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(65536)
            head, _, tail = head.partition(b"\r\n\r\n")
            assert b"101 Switching Protocols" in head

            def send(message):
                frame = encode_message(message)
                sock.sendall(
                    WebSocketCodec.mask_client_frame(
                        OP_BINARY, frame, b"\x0a\x0b\x0c\x0d"
                    )
                )

            buffer = bytearray(tail)
            decoder = FrameDecoder()

            def read_message():
                while True:
                    if len(buffer) >= 2:
                        length = buffer[1] & 0x7F
                        offset = 2
                        if length == 126:
                            (length,) = struct.unpack_from(">H", buffer, 2)
                            offset = 4
                        if len(buffer) >= offset + length:
                            payload = bytes(buffer[offset : offset + length])
                            del buffer[: offset + length]
                            messages = decoder.feed(payload)
                            if messages:
                                return messages[0]
                            continue
                    buffer.extend(sock.recv(65536))

            send(Message(Command.HELLO, {"version": 1, "tenant": "ws"}))
            hello = read_message()
            assert hello.command is Command.HELLO_OK
            assert hello.meta["tenant"] == "ws"
            send(Message(Command.PING, {"seq": 1}))
            pong = read_message()
            assert pong.command is Command.PONG
            assert pong.meta["seq"] == 1
    finally:
        cell.stop()


def test_concurrent_subscribe_unsubscribe_under_fire():
    cell, server = _boot()
    query = cell.submit_continuous(
        "select t.price, t.sym from [select * from trades] as t",
        name="all",
    )
    baseline = query.emitter.subscriber_count
    host, port = server.address
    stop = threading.Event()
    errors = []

    def inserter():
        try:
            with DataCellClient(host, port, client="inserter") as db:
                i = 0
                while not stop.is_set():
                    db.insert("trades", TRADE_COLUMNS, [(i, "x")])
                    i += 1
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(f"inserter: {exc}")

    def toggler(n):
        try:
            with DataCellClient(host, port, client=f"toggler-{n}") as db:
                for _ in range(25):
                    db.subscribe(query="all")
                    db.poll("all", timeout=0.05)
                    db.unsubscribe("all")
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(f"toggler-{n}: {exc}")

    threads = [threading.Thread(target=toggler, args=(n,)) for n in range(3)]
    feeder = threading.Thread(target=inserter)
    feeder.start()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        stop.set()
        feeder.join(10.0)
    try:
        assert errors == []
        deadline = time.monotonic() + 5
        while (
            query.emitter.subscriber_count > baseline
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)  # disconnecting sessions detach asynchronously
        assert query.emitter.subscriber_count == baseline
    finally:
        cell.stop()


def test_max_sessions_refuses_connection():
    cell, server = _boot(config=ServerConfig(max_sessions=1))
    try:
        host, port = server.address
        with DataCellClient(host, port):
            with pytest.raises(ServerError, match="max_sessions"):
                DataCellClient(host, port).connect()
    finally:
        cell.stop()


def test_server_drains_queues_on_stop():
    """close() flushes queued DATA to sockets before tearing down."""
    cell, server = _boot()
    try:
        host, port = server.address
        db = DataCellClient(host, port)
        db.connect()
        db.subscribe(BIG_SQL, name="big")
        db.insert("trades", TRADE_COLUMNS, [(500, "F")])
        rows = db.poll("big", timeout=10.0)
        assert rows == [(500, "F")]
    finally:
        cell.stop()
    # after stop the client sees BYE, then EOF
    events = [m.command for m in db.drain_events()]
    try:
        db.poll("big", timeout=0.2)
    except ServerError:
        pass
    events += [m.command for m in db.drain_events()]
    assert Command.BYE in events
    db.close(send_bye=False)
