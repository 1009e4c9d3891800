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
from repro.durability import DurabilityConfig, list_segments
from repro.durability.serde import FRAME_HEADER, frames_with_tail
from repro.durability.wal import SEGMENT_MAGIC, decode_record
from repro.errors import ServerError
from repro.incremental import integrate_weighted_rows
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


def test_subscribe_to_a_view_delivers_weighted_rows():
    """SUBSCRIBE registers ``create view`` SQL like any continuous
    query: the session gets the view's weighted deltas, ``dc_weight``
    last, and they integrate to the running result."""
    cell, server = _boot()
    try:
        with DataCellClient(*server.address) as db:
            qname = db.subscribe(
                "create view totals as select t.sym, sum(t.price) "
                "from [select * from trades] as t group by t.sym"
            )
            assert qname == "totals"
            assert db.columns["totals"] == [
                ("sym", AtomType.STR), ("sum", AtomType.LNG),
                ("dc_weight", AtomType.LNG),
            ]
            db.insert("trades", TRADE_COLUMNS, [(5, "X"), (7, "Y")])
            rows = db.poll("totals", timeout=10.0, min_rows=2)
            db.insert("trades", TRADE_COLUMNS, [(4, "X")])
            rows += db.poll("totals", timeout=10.0, min_rows=2)
            assert sorted(rows) == [
                ("X", 5, -1), ("X", 5, 1), ("X", 9, 1), ("Y", 7, 1),
            ]
            assert sorted(integrate_weighted_rows(rows)) == [
                ("X", 9), ("Y", 7),
            ]
    finally:
        assert cell.stop() == []


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


def _poll_until(db, name, rows, done, deadline):
    """Poll ``name`` into ``rows`` until ``done(rows)``, failing at
    ``deadline`` (a poll that sees no frame in time raises)."""
    while not done(rows):
        rows.extend(db.poll(name, timeout=deadline - time.monotonic()))


def test_sessions_fan_out_queries_without_drops():
    """8 sessions × 4 queries under ``block``: every session gets every
    session's rows on every subscription and no frame is dropped.

    One basket per query, because distinct queries over one basket
    compete for its tuples.  Each session runs a fixed number of
    closed-loop batches: insert into every basket, then wait for its own
    rows on every subscription.
    """
    n_sessions, n_queries, n_batches, n_rows = 8, 4, 5, 4
    columns = [
        ("client", AtomType.INT), ("batch", AtomType.INT), ("v", AtomType.INT)
    ]
    cell, server = _boot(config=ServerConfig(backpressure="block"))
    queries = []  # (handle, basket)
    for i in range(n_queries):
        cell.execute(f"create basket fan{i} (client int, batch int, v int)")
        handle = cell.submit_continuous(
            f"select s.client, s.batch, s.v from [select * from fan{i}] as s",
            name=f"fan_q{i}",
        )
        queries.append((handle, f"fan{i}"))
    # the handle's own fetch() collector counts as one subscriber
    baselines = [q.emitter.subscriber_count for q, _ in queries]
    expected = sorted(
        (c, b, v)
        for c in range(n_sessions)
        for b in range(n_batches)
        for v in range(n_rows)
    )
    host, port = server.address
    # phases: all subscribed / all received / stats read
    barrier = threading.Barrier(n_sessions + 1, timeout=60.0)
    deadline = time.monotonic() + 60.0
    received = {}
    errors = []

    def session(cid):
        try:
            with DataCellClient(
                host, port, client=f"fan-{cid}", timeout=30.0
            ) as db:
                got = {db.subscribe(query=q.name): [] for q, _ in queries}
                barrier.wait()
                for batch in range(n_batches):
                    for _, basket in queries:
                        db.insert(
                            basket, columns,
                            [(cid, batch, v) for v in range(n_rows)],
                        )
                    for name, rows in got.items():
                        _poll_until(
                            db, name, rows,
                            lambda rows, b=batch: sum(
                                r[:2] == (cid, b) for r in rows
                            ) == n_rows,
                            deadline,
                        )
                for name, rows in got.items():
                    _poll_until(
                        db, name, rows,
                        lambda rows: len(rows) >= len(expected), deadline,
                    )
                received[cid] = got
                barrier.wait()
                barrier.wait()
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(f"session {cid}: {type(exc).__name__}: {exc}")
            barrier.abort()

    threads = [
        threading.Thread(target=session, args=(cid,))
        for cid in range(n_sessions)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()
        barrier.wait()
        stats = server.stats()
        barrier.wait()
    except threading.BrokenBarrierError:
        stats = None
    finally:
        for t in threads:
            t.join(60.0)
        # closed clients detach asynchronously; stopping first would wait
        # out the drain budget on their dead sockets
        while server.stats()["sessions_open"] and time.monotonic() < deadline:
            time.sleep(0.01)
        cell.stop()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert stats["sessions_open"] == n_sessions
    assert stats["dropped_frames"] == 0
    for cid in range(n_sessions):
        for q, _ in queries:
            assert sorted(received[cid][q.name]) == expected, (cid, q.name)
    # attached (not owned) subscriptions leave the queries standing
    assert [q.name for q in cell.continuous_queries()] == [
        q.name for q, _ in queries
    ]
    assert [q.emitter.subscriber_count for q, _ in queries] == baselines


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


def test_a_rejected_insert_frame_changes_nothing():
    """A frame that declares a VARCHAR column for an INT basket column
    gets an ERROR reply, and the basket is as before: the good column
    ahead of it was not appended, so the next frame's rows arrive
    unchanged."""
    cell, server = _boot()
    cell.execute("create basket pairs (a int, b int)")
    good = [("a", AtomType.INT), ("b", AtomType.INT)]
    try:
        with DataCellClient(*server.address) as db:
            db.subscribe(
                "select p.a, p.b from [select * from pairs] as p", name="p"
            )
            basket = cell.basket("pairs")
            before = (basket.total_in, basket.state_digest())
            with pytest.raises(ServerError, match="ingest"):
                db.insert("pairs", [("a", AtomType.INT), ("b", AtomType.STR)],
                          [(1, "x"), (3, "y")])
            assert (basket.total_in, basket.state_digest()) == before
            assert db.insert("pairs", good, [(7, 8)])["rows"] == 1
            assert db.poll("p", timeout=10.0, min_rows=1) == [(7, 8)]
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


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.01)


def _session_kinds(events):
    return [
        e.kind for e in events
        if e.kind in ("client_connect", "client_disconnect")
    ]


def test_session_events_reach_the_log_without_sys_streams():
    cell, server = _boot()
    try:
        with DataCellClient(*server.address, tenant="acme") as db:
            assert db.ping() < 10.0
        _wait_for(lambda: cell.trace.events(kind="client_disconnect"))
    finally:
        cell.stop()
    assert cell.sys is None
    assert _session_kinds(cell.trace.events()) == [
        "client_connect", "client_disconnect",
    ]
    connect = cell.trace.events(kind="client_connect")[0]
    assert connect.component == "server"
    assert connect.detail["tenant"] == "acme"


def test_session_events_reach_sys_events_after_one_tick():
    from repro.obs.sysstreams import SYS_EVENTS, tail_rows

    cell, server = _boot(system_streams=True)
    try:
        with DataCellClient(*server.address, tenant="acme") as db:
            assert db.ping() < 10.0
        _wait_for(lambda: cell.trace.events(kind="client_disconnect"))
        samples = cell.sys.samples_taken
        cell.clock.advance(1.0)  # the sampler thread's next tick is due
        _wait_for(lambda: cell.sys.samples_taken > samples)
        columns, rows = tail_rows(cell.basket(SYS_EVENTS), 100)
    finally:
        cell.stop()
    kind, component = columns.index("kind"), columns.index("component")
    assert [
        r[kind] for r in rows
        if r[component] == "server"
    ] == ["client_connect", "client_disconnect"]


def test_budget_breach_event_throttles_the_tenant():
    # the server hears breaches through its log subscription
    cell, server = _boot(config=ServerConfig(admission_cooldown=5.0))
    try:
        cell.trace.record(
            "budget_breach", "cap", scope="tenant:acme", tick=1
        )
        cell.trace.record(
            "budget_breach", "qcap", scope="query:q1", tick=1
        )
        assert server.tenants_throttled == 1
        assert set(server.stats()["throttled_tenants"]) == {"acme"}
        (event,) = cell.trace.events(kind="tenant_throttled")
        assert event.detail == {"tenant": "acme", "seconds": 5.0}
    finally:
        cell.stop()
    # a closed server no longer listens
    cell.trace.record("budget_breach", "cap", scope="tenant:acme", tick=2)
    assert server.tenants_throttled == 1


def test_shutdown_order_is_server_scheduler_durability(tmp_path):
    cell = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path),
    )
    cell.execute("create basket trades (price int, sym str)")
    cell.start()
    cell.serve()
    assert cell.stop() == []
    stages = [
        e.detail["stage"]
        for e in cell.trace.events()
        if e.kind == "shutdown"
    ]
    assert stages == ["server", "scheduler", "durability"]
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
    recovered.durability.close()


def test_acks_ride_the_pumps_group_commit(tmp_path, fsync_ledger):
    """ACK after durable, one fsync per pump activation: every ACK the
    client reads is covered by a completed fsync, a rejected batch's
    ERROR keeps its place among the ACKs, and the WAL fsyncs at most
    once per pump activation."""
    cell = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path, fsync="always"),
    )
    cell.execute("create basket trades (price int, sym str)")
    cell.start()
    server = cell.serve()
    try:
        (_, segment), = list_segments(cell.durability.wal_dir)
        with DataCellClient(*server.address) as db:
            for n in range(24):
                if n == 11:  # a column the basket lacks: the pump rejects it
                    columns = [("price", AtomType.INT), ("nope", AtomType.STR)]
                else:
                    columns = TRADE_COLUMNS
                db.insert("trades", columns, [(1000 + n, "A")], wait=False)
            replies = []  # (reply, synced WAL length when it arrived)
            deadline = time.monotonic() + 10
            while len(replies) < 24:
                for message in db._pump(deadline - time.monotonic()):
                    if message.command in (Command.ACK, Command.ERROR):
                        replies.append(
                            (message, fsync_ledger.synced_length(segment))
                        )
        fsyncs = cell.stats()["durability"]["wal_fsyncs"]
        activations = server.pump.activations
    finally:
        assert cell.stop() == []

    seqs = [message.meta["seq"] for message, _ in replies]
    assert seqs == sorted(seqs)
    commands = [message.command for message, _ in replies]
    assert commands == [Command.ACK] * 11 + [Command.ERROR] + [Command.ACK] * 12
    # the i-th ACK is the i-th INSERT record: each ends inside the synced
    # prefix the client could observe when that ACK arrived
    data = segment.read_bytes()
    offset = len(SEGMENT_MAGIC)
    ends = []
    for payload in frames_with_tail(data[offset:])[0]:
        offset += FRAME_HEADER.size + len(payload)
        record = decode_record(payload)
        ends.append((int(record.arrays[0][0]), offset))
    acked = [synced for message, synced in replies
             if message.command is Command.ACK]
    assert [price for price, _ in ends] == [
        1000 + n for n in range(24) if n != 11
    ]
    for (_, end), synced in zip(ends, acked):
        assert end <= synced
    assert 1 <= fsyncs <= activations


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


def _engine_threads():
    return sorted(
        t.name for t in threading.enumerate()
        if t.is_alive() and t.name.startswith("datacell-")
    )


def _await_sessions_closed(server, seconds=10.0):
    deadline = time.monotonic() + seconds
    while server.stats()["sessions_open"] and time.monotonic() < deadline:
        time.sleep(0.01)


def test_thread_count_does_not_grow_with_queries():
    """One dispatcher drives every query: a serving cell runs the same
    ``datacell-`` threads with 1 query as with 8."""
    threads = []
    for n_queries in (1, 8):
        cell, server = _boot()
        try:
            with DataCellClient(*server.address) as db:
                for i in range(n_queries):
                    db.create(f"create basket t{i} (v int)")
                    db.subscribe(
                        f"select x.v from [select * from t{i}] as x",
                        name=f"q{i}",
                    )
                    db.insert(f"t{i}", [("v", AtomType.INT)], [(i,)])
                for i in range(n_queries):
                    assert db.poll(f"q{i}", timeout=10.0) == [(i,)]
                threads.append(_engine_threads())
            _await_sessions_closed(server)
        finally:
            assert cell.stop() == []
    assert threads[0] == threads[1]
    assert "datacell-scheduler" in threads[0]


def test_full_block_queue_stalls_only_its_own_session():
    """Under ``block`` a session whose queue is full (its client never
    reads) holds back its own query, not another session's, and is
    disconnected once the queue has stayed full for ``block_timeout``."""
    config = ServerConfig(
        backpressure="block", queue_frames=2, block_timeout=1.5
    )
    cell, server = _boot(config=config)
    columns = [("v", AtomType.INT)]
    for name in ("slow_in", "fast_in"):
        cell.execute(f"create basket {name} (v int)")
    try:
        with DataCellClient(*server.address) as slow, \
                DataCellClient(*server.address) as fast:
            slow.subscribe(
                "select x.v from [select * from slow_in] as x", name="slow_q"
            )
            fast.subscribe(
                "select x.v from [select * from fast_in] as x", name="fast_q"
            )
            (stuck,) = [
                s for s in server.sessions() if "slow_q" in s.subscriptions
            ]
            stuck.wake = lambda: None  # its writer never drains the queue
            deadline = time.monotonic() + 10.0
            held = cell.basket("slow_q_out")
            # two frames fill the queue, the third batch is held back
            for v, filled in ((0, lambda: stuck.queue.data_depth == 1),
                              (1, lambda: stuck.queue.data_depth == 2),
                              (2, lambda: held.total_in == 3)):
                slow.insert("slow_in", columns, [(v,)], wait=False)
                while not filled():
                    assert time.monotonic() < deadline, "queue never filled"
                    time.sleep(0.005)
                if v == 1:
                    full_at = time.monotonic()
            fast.insert("fast_in", columns, [(7,)])
            assert fast.poll("fast_q", timeout=10.0) == [(7,)]
            assert time.monotonic() - full_at < 0.75
            assert held.count == 1 and not stuck.queue.has_room()
            while not stuck.closed:
                assert time.monotonic() < full_at + 10.0, "never disconnected"
                time.sleep(0.01)
            assert time.monotonic() - full_at >= 1.2
            assert [
                e.detail["outcome"] for e in cell.trace.events(kind="queue_full")
            ] == ["disconnect"]
            assert server.stats()["dropped_frames"] == 0
        _await_sessions_closed(server)
    finally:
        assert cell.stop() == []


def test_backpressure_blocks_series_reads_the_session_queues():
    """``datacell_server_backpressure_blocks_total`` counts the times a
    ``block`` session queue filled: the tallies ``stats()`` sums."""
    config = ServerConfig(
        backpressure="block", queue_frames=1, block_timeout=30.0
    )
    cell, server = _boot(config=config)
    cell.execute("create basket slow_in (v int)")
    try:
        with DataCellClient(*server.address) as slow:
            slow.subscribe(
                "select x.v from [select * from slow_in] as x", name="slow_q"
            )
            (stuck,) = server.sessions()
            stuck.wake = lambda: None  # its writer never drains the queue
            slow.insert("slow_in", [("v", AtomType.INT)], [(1,)], wait=False)
            deadline = time.monotonic() + 10.0
            while stuck.queue.blocks == 0:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.005)
            blocks = cell.metrics.value(
                "datacell_server_backpressure_blocks_total"
            )
            assert blocks == server.stats()["backpressure_blocks"] == 1
        _await_sessions_closed(server)
    finally:
        assert cell.stop() == []
