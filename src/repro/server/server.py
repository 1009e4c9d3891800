"""The asyncio network front door: TCP + WebSocket on one framing.

One background thread (``datacell-server-loop``) runs an asyncio event
loop; each connection gets a reader coroutine (socket → frame decoder →
dispatch) and a writer coroutine (session output queue → socket).  The
only seam into the engine is the :class:`~repro.server.ingest
.IngestQueue` — the reader never touches baskets, the scheduler-side
pump applies batches and sends the ``ACK``s — plus a control lock
serializing DDL/subscription registration.

Admission control happens at the socket:

* connection and per-tenant session caps refuse ``HELLO``;
* a per-tenant pending-ingest watermark pauses the reader coroutine
  (TCP flow control throttles the peer) until the pump drains;
* tenant-scoped :class:`~repro.obs.resources.ResourceBudget` breaches
  (``budget_breach`` events, heard through ``cell.trace.subscribe``)
  throttle the tenant's readers for ``admission_cooldown`` seconds per
  breach.

Session lifecycle and admission decisions are events in the cell's log
(component ``server``), whether or not system streams are on.

A plain HTTP ``GET`` on the same port is answered from
:func:`telemetry_response`, rendered on the loop's executor threads
(``datacell-server-http``) so a slow scrape stalls no session, then
closed; it is not a session (no ``max_sessions`` check, no session series).

This module is the one place the server may read the wall clock
(``HELLO_OK`` session timestamps) — it is on the engine-invariant
linter's approved list for exactly that.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from ..errors import ProtocolError, ReproError, ServerError
from ..obs.sysstreams import is_system_name, tail_rows
from ..obs.tracing import TraceEvent
from ..sql.ast_nodes import CreateBasket, CreateTable
from ..sql.parser import parse_statement
from .ingest import IngestBatch, IngestQueue, ServerIngestPump
from .protocol import (
    PROTOCOL_VERSION,
    Command,
    FrameDecoder,
    Message,
    encode_message,
    error_message,
)
from .session import ClientSession, ServerConfig, SubscriptionBinding
from .ws import WebSocketCodec, handshake_response, parse_http_headers

__all__ = ["DataCellServer", "telemetry_response"]

#: reader poll interval while paused on admission (seconds)
ADMISSION_POLL = 0.02
#: frames the writer drains per wakeup
DRAIN_FRAMES = 256
#: rows a ``/sys/<basket>`` tail returns without ``?n=`` or ``?limit=``
SYS_TAIL_LIMIT = 50


def telemetry_response(cell: Any, target: str) -> Tuple[int, str, str]:
    """Route one HTTP GET ``target`` to ``(status, content_type, body)``.

    ``/metrics`` (Prometheus text), ``/dashboard``, ``/stats`` (JSON),
    ``/top?n=`` (queries ranked by CPU), ``/explain/<q>`` (continuous
    EXPLAIN ANALYZE), ``/sys/<basket>?n=`` (JSON tail of a system
    stream; bare names resolve under ``sys.``, ``?limit=`` is the long
    form of ``?n=``) and ``/healthz``.  Computed from live engine state;
    the cell is never mutated, and an engine error is a 500.
    """
    parsed = urlparse(target)
    path = unquote(parsed.path).rstrip("/") or "/"
    query = parse_qs(parsed.query)
    text = "text/plain"
    try:
        if path == "/metrics":
            body = cell.prometheus_text() or "# (registry disabled)\n"
            return 200, "text/plain; version=0.0.4", body
        if path == "/dashboard":
            return 200, text, cell.render_dashboard()
        if path == "/stats":
            stats = json.dumps(cell.stats(), indent=1, default=str)
            return 200, "application/json", stats
        if path == "/healthz":
            return 200, text, "ok\n"
        if path == "/top":
            limit = _int_arg(query, "n", default=10)
            if limit is None:
                return 400, text, "n must be an integer\n"
            return 200, text, cell.top(limit) + "\n"
        if path.startswith("/explain/"):
            name = path[len("/explain/"):]
            if name not in {q.name for q in cell.continuous_queries()}:
                return 404, text, f"no continuous query named {name!r}\n"
            return 200, text, cell.explain(name)
        if path.startswith("/sys/"):
            name = path[len("/sys/"):]
            name = name if is_system_name(name) else f"sys.{name}"
            if not cell.catalog.has(name):
                return 404, text, (
                    f"no system stream {name!r} "
                    "(are system streams enabled?)\n"
                )
            # ?n= is the short form; it wins over ?limit= when both given
            limit = _int_arg(query, "n", "limit", default=SYS_TAIL_LIMIT)
            if limit is None:
                return 400, text, "limit must be an integer\n"
            basket = cell.basket(name)
            columns, rows = tail_rows(basket, max(0, limit))
            return 200, "application/json", json.dumps({
                "basket": basket.name, "columns": columns, "rows": rows,
                "depth": basket.count, "total_in": basket.total_in,
            }, default=str)
    except Exception as exc:  # surface engine errors as 500s
        return 500, text, f"{type(exc).__name__}: {exc}\n"
    return 404, text, f"unknown path {path!r}\n"


def _int_arg(
    query: Dict[str, List[str]], *names: str, default: int
) -> Optional[int]:
    """First of ``names`` in ``query`` as an int (None if it is not one);
    ``default`` when none is given."""
    for name in names:
        if name in query:
            try:
                return int(query[name][0])
            except ValueError:
                return None
    return default


def _http_reply(status: int, content_type: str, body: str) -> bytes:
    """One complete HTTP/1.1 response; the connection closes after it."""
    payload = body.encode("utf-8")
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + payload


class _RawTransport:
    """Plain TCP: the socket carries protocol frames directly."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        initial: bytes = b"",
    ):
        self._reader = reader
        self._writer = writer
        self._initial = initial

    async def read(self) -> bytes:
        if self._initial:
            head, self._initial = self._initial, b""
            return head
        return await self._reader.read(65536)

    def _encode(self, frames: List[bytes]) -> bytes:
        return b"".join(frames)

    def send_frames(self, frames: List[bytes]) -> int:
        data = self._encode(frames)
        self._writer.write(data)
        return len(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        if not self._writer.is_closing():
            self._writer.close()


class _WsTransport(_RawTransport):
    """WebSocket: each protocol frame rides one binary WS message."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_message_bytes: int,
    ):
        super().__init__(reader, writer)
        self._codec = WebSocketCodec(max_message_bytes)

    async def read(self) -> bytes:
        while True:
            data = await self._reader.read(65536)
            if not data:
                return b""
            messages, replies = self._codec.feed(data)
            if replies:
                self._writer.write(b"".join(replies))
                await self._writer.drain()
            if self._codec.closed:
                return b""
            if messages:
                return b"".join(messages)

    def _encode(self, frames: List[bytes]) -> bytes:
        return b"".join(WebSocketCodec.encode_binary(f) for f in frames)

    def close(self) -> None:
        if not self._writer.is_closing():
            try:
                self._writer.write(WebSocketCodec.encode_close())
            except Exception:
                pass
        super().close()


class _Connection:
    """Loop-side bookkeeping for one live session."""

    __slots__ = (
        "session", "transport", "wakeup", "writer_task", "block_timer",
    )

    def __init__(self, session, transport, wakeup):
        self.session = session
        self.transport = transport
        self.wakeup = wakeup
        self.writer_task: Optional[asyncio.Task] = None
        # pending block_timeout check of a full ``block`` queue
        self.block_timer: Optional[asyncio.TimerHandle] = None


class DataCellServer:
    """The network front door of one :class:`~repro.core.engine.DataCell`.

    Normally built through :meth:`DataCell.serve`.  The engine should be
    in threaded mode (``cell.start()``) so the ingest pump and the
    subscribed queries actually fire; the server only moves frames.
    """

    def __init__(
        self,
        cell: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServerConfig] = None,
    ):
        self.cell = cell
        self.config = config or ServerConfig()
        self.config.validate()
        self.host = host
        self.port = port
        self.ingest = IngestQueue()
        self.pump = ServerIngestPump(cell, self.ingest)
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._closed = False
        self._conns: Dict[int, _Connection] = {}
        self._conns_lock = threading.Lock()
        self._session_counter = 0
        # serializes engine mutations (DDL, query registration) issued
        # from the event loop against application threads
        self._control = threading.Lock()
        # tenant -> monotonic deadline until which ingest is throttled
        self._throttled: Dict[str, float] = {}
        self._throttle_lock = threading.Lock()
        self.connections_total = 0
        self.tenants_throttled = 0
        self.http_requests = 0
        m = cell.metrics
        self._m_sessions = m.gauge(
            "datacell_server_sessions", "Open client sessions"
        )
        self._m_connections = m.counter(
            "datacell_server_connections_total",
            "Accepted client connections",
        )
        self._m_frames_in = m.counter(
            "datacell_server_frames_in_total",
            "Protocol frames received from clients",
        )
        self._m_frames_out = m.counter(
            "datacell_server_frames_out_total",
            "Protocol frames written to clients",
        )
        self._m_bytes_in = m.counter(
            "datacell_server_bytes_in_total", "Bytes read from clients"
        )
        self._m_bytes_out = m.counter(
            "datacell_server_bytes_out_total", "Bytes written to clients"
        )
        self._m_dropped = m.counter(
            "datacell_server_dropped_frames_total",
            "DATA frames shed by per-client queues, per policy",
            ("policy",),
        )
        self._m_blocks = m.counter(
            "datacell_server_backpressure_blocks_total",
            "Deliveries that had to wait on a full client queue",
        )
        self._m_throttled = m.counter(
            "datacell_server_throttled_total",
            "Tenant ingest throttles from budget breaches",
            ("tenant",),
        )
        self._m_errors = m.counter(
            "datacell_server_errors_total",
            "ERROR frames sent to clients, per code",
            ("code",),
        )
        cell.scheduler.register(self.pump)
        self._stop_listening = cell.trace.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DataCellServer":
        """Bind and start accepting; returns once the port is resolved."""
        if self._thread is not None:
            raise ServerError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="datacell-server-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise ServerError("server event loop failed to start")
        if self._start_error is not None:
            self._thread.join(5.0)
            self._thread = None
            raise ServerError(
                f"server failed to bind {self.host}:{self.port}: "
                f"{self._start_error}"
            )
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        # telemetry GETs render on these threads (named like every
        # engine thread, so one left running shows as a leak)
        loop.set_default_executor(ThreadPoolExecutor(
            2, thread_name_prefix="datacell-server-http"
        ))
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self._open())
            except BaseException as exc:
                self._start_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            # drain cancellations left behind by close()
            pending = [
                t for t in asyncio.all_tasks(loop) if not t.done()
            ]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _open(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting, drain client output queues, close sessions.

        Part of the engine shutdown order (server → scheduler →
        durability, see ``docs/server.md``): queued ``DATA``
        frames are flushed to sockets within ``timeout`` before
        transports close; queued-but-unapplied ingest batches are left
        un-ACKed (the at-least-once contract — an unacknowledged INSERT
        may or may not have been applied).
        """
        if self._closed:
            return
        self._closed = True
        budget = (
            timeout
            if timeout is not None
            else self.config.shutdown_drain_timeout
        )
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown_sessions(budget), loop
            )
            try:
                future.result(budget + 5.0)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(budget + 5.0)
            self._thread = None
        # the pump unregisters after sockets are gone: nothing new can
        # arrive, and whatever the scheduler already drained is applied
        self.cell.scheduler.unregister(self.pump.name)
        self._stop_listening()

    async def _shutdown_sessions(self, budget: float) -> None:
        if self._server is not None:
            self._server.close()
        with self._conns_lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.session.send(Message(Command.BYE, {"reason": "shutdown"}))
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            if all(c.session.queue.depth == 0 for c in conns):
                break
            await asyncio.sleep(0.01)
        for conn in conns:
            conn.session.close()
            conn.wakeup.set()
            self._release(conn)

    # ------------------------------------------------------------------
    # per-connection machinery
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        remote = f"{peer[0]}:{peer[1]}" if peer else "?"
        try:
            head = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        if head != b"GET ":
            transport: Any = _RawTransport(reader, writer, initial=head)
        elif await self._answer_http(reader, writer, head):
            transport = _WsTransport(
                reader, writer, self.config.max_frame_bytes
            )
        else:
            writer.close()
            return
        await self._session_loop(transport, remote)

    async def _answer_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: bytes,
    ) -> bool:
        """Reply to an HTTP request head; True once a WebSocket upgrade
        is accepted (the session follows), False when the connection
        should close (a telemetry GET or a bad request)."""
        try:
            raw = head + await reader.readuntil(b"\r\n\r\n")
            request_line, headers = parse_http_headers(raw)
            if headers.get("upgrade", "").lower() == "websocket":
                writer.write(handshake_response(headers))
                await writer.drain()
                return True
            # counted before rendering, so a client that reads the
            # reply and then the tally never races the increment
            self.http_requests += 1
            # rendered off the loop thread, so a scrape does not stall
            # every session's socket I/O
            response = await asyncio.get_running_loop().run_in_executor(
                None, telemetry_response, self.cell,
                request_line.split(" ")[1],
            )
            reply = _http_reply(*response)
        except asyncio.LimitOverrunError:
            reply = _http_reply(431, "text/plain", "request head too long\n")
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            reply = _http_reply(400, "text/plain", "bad request\n")
        try:
            writer.write(reply)
            await writer.drain()
        except ConnectionError:
            pass
        return False

    async def _session_loop(self, transport: Any, remote: str) -> None:
        config = self.config
        with self._conns_lock:
            at_capacity = (
                self._closed or len(self._conns) >= config.max_sessions
            )
            if not at_capacity:
                self._session_counter += 1
                session_id = self._session_counter
        if at_capacity:
            self._m_errors.labels("admission").inc()
            transport.send_frames([encode_message(error_message(
                "admission", "server is at max_sessions or shutting down"
            ))])
            try:
                await transport.drain()
            except ConnectionError:
                pass
            transport.close()
            return
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(wakeup.set)
            except RuntimeError:
                pass  # loop already closed; frames die with the session

        def on_full() -> None:
            try:
                loop.call_soon_threadsafe(self._arm_block_timer, conn)
            except RuntimeError:
                pass

        session = ClientSession(
            session_id,
            config,
            remote=remote,
            wake=wake,
            request_close=lambda reason: wake_and_close(),
            on_full=on_full,
        )
        self._m_blocks.read_from(session.queue.block_tally)
        conn = _Connection(session, transport, wakeup)

        def wake_and_close() -> None:
            session.close()
            try:
                loop.call_soon_threadsafe(self._abort_connection, conn)
            except RuntimeError:
                pass

        with self._conns_lock:
            self._conns[session_id] = conn
        self.connections_total += 1
        self._m_connections.inc()
        self._m_sessions.inc()
        conn.writer_task = asyncio.ensure_future(
            self._writer_loop(conn)
        )
        decoder = FrameDecoder(config.max_frame_bytes)
        try:
            await self._reader_loop(session, transport, decoder)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ProtocolError as exc:
            self._send_error(session, "protocol", str(exc))
        finally:
            await self._teardown(conn)

    def _arm_block_timer(
        self, conn: _Connection, delay: Optional[float] = None
    ) -> None:
        """Check a full ``block`` queue once ``block_timeout`` (or the
        ``delay`` left of it) has passed; the check runs on this loop,
        never on the scheduler's thread."""
        if conn.block_timer is None and not conn.session.closed:
            conn.block_timer = asyncio.get_running_loop().call_later(
                self.config.block_timeout if delay is None else delay,
                self._check_block, conn,
            )

    def _check_block(self, conn: _Connection) -> None:
        conn.block_timer = None
        left = conn.session.check_block_timeout()
        if left:
            self._arm_block_timer(conn, left)
        elif left is not None:  # disconnected
            self.cell.trace.record(
                "queue_full", "server", session=conn.session.id,
                policy="block", outcome="disconnect",
            )

    def _abort_connection(self, conn: _Connection) -> None:
        conn.wakeup.set()
        conn.transport.close()

    async def _teardown(self, conn: _Connection) -> None:
        session = conn.session
        # flush what the writer can still deliver, then close the queue
        session.closed = True
        conn.wakeup.set()
        try:
            if conn.writer_task is not None:
                try:
                    await asyncio.wait_for(conn.writer_task, 2.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    conn.writer_task.cancel()
        finally:
            # the release is synchronous and runs even if the reader
            # task is cancelled out from under us at loop shutdown —
            # a session must never leave its bindings on an emitter
            self._release(conn)

    def _release(self, conn: _Connection) -> None:
        """Detach a session from the engine (idempotent)."""
        session = conn.session
        with self._conns_lock:
            if self._conns.pop(session.id, None) is None:
                return  # already released
        session.close()
        conn.transport.close()
        if conn.block_timer is not None:
            conn.block_timer.cancel()
        for _name, handle, binding, owned in session.drain_subscriptions():
            try:
                handle.emitter.unsubscribe(binding)
                if owned:
                    with self._control:
                        self.cell.remove_continuous(handle)
            except ReproError:
                pass  # engine already tore the query down
        self._m_sessions.dec()
        self.cell.trace.record(
            "client_disconnect",
            "server",
            session=session.id,
            tenant=session.tenant,
            **{
                k: v
                for k, v in session.stats().items()
                if k not in ("tenant",)
            },
        )

    async def _writer_loop(self, conn: _Connection) -> None:
        session, transport, wakeup = (
            conn.session, conn.transport, conn.wakeup,
        )
        try:
            while True:
                await wakeup.wait()
                wakeup.clear()
                while True:
                    frames = session.queue.drain(DRAIN_FRAMES)
                    if not frames:
                        break
                    nbytes = transport.send_frames(frames)
                    session.frames_out += len(frames)
                    self._m_frames_out.inc(len(frames))
                    self._m_bytes_out.inc(nbytes)
                    await transport.drain()
                if session.closed and session.queue.depth == 0:
                    return
        except (ConnectionError, RuntimeError):
            session.close()

    async def _reader_loop(
        self, session: ClientSession, transport: Any, decoder: FrameDecoder
    ) -> None:
        while not session.closed and not self._closed:
            await self._admission_pause(session)
            if session.closed or self._closed:
                return
            data = await transport.read()
            if not data:
                return
            self._m_bytes_in.inc(len(data))
            for message in decoder.feed(data):
                session.frames_in += 1
                self._m_frames_in.inc()
                if not self._dispatch(session, message):
                    return

    async def _admission_pause(self, session: ClientSession) -> None:
        """Hold the reader while the tenant is throttled or over the
        pending-ingest watermark — TCP flow control does the rest."""
        if not session.hello_done:
            return
        config = self.config
        while not session.closed and not self._closed:
            throttled = self._throttle_remaining(session.tenant)
            over = (
                self.ingest.pending_rows(session.tenant)
                > config.max_pending_rows_per_tenant
            )
            if throttled <= 0.0 and not over:
                return
            await asyncio.sleep(
                min(max(throttled, ADMISSION_POLL), 0.1)
            )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, session: ClientSession, message: Message) -> bool:
        """Handle one decoded message; False ends the session."""
        command = message.command
        if not session.hello_done:
            if command != Command.HELLO:
                self._send_error(
                    session, "hello-required",
                    f"first frame must be HELLO, got {command.name}",
                )
                return False
            return self._do_hello(session, message)
        if command == Command.INSERT:
            return self._do_insert(session, message)
        if command == Command.SUBSCRIBE:
            return self._do_subscribe(session, message)
        if command == Command.UNSUBSCRIBE:
            return self._do_unsubscribe(session, message)
        if command == Command.CREATE:
            return self._do_create(session, message)
        if command == Command.PING:
            session.send(Message(Command.PONG, dict(message.meta)))
            return True
        if command == Command.BYE:
            session.send(Message(Command.BYE, {}))
            return False
        self._send_error(
            session, "bad-command",
            f"clients may not send {command.name}",
        )
        return True

    def _do_hello(self, session: ClientSession, message: Message) -> bool:
        version = message.meta.get("version")
        if version != PROTOCOL_VERSION:
            self._send_error(
                session, "version",
                f"protocol version {version!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})",
            )
            return False
        tenant = str(message.meta.get("tenant", "default"))
        cap = self.config.max_sessions_per_tenant
        if cap is not None:
            with self._conns_lock:
                held = sum(
                    1
                    for c in self._conns.values()
                    if c.session.hello_done and c.session.tenant == tenant
                )
            if held >= cap:
                self._send_error(
                    session, "admission",
                    f"tenant {tenant!r} is at its session cap ({cap})",
                )
                return False
        session.tenant = tenant
        session.client = str(message.meta.get("client", "?"))
        session.hello_done = True
        session.send(
            Message(
                Command.HELLO_OK,
                {
                    "session": session.id,
                    "tenant": tenant,
                    "version": PROTOCOL_VERSION,
                    "server_time": time.time(),
                    "backpressure": self.config.backpressure,
                },
            )
        )
        self.cell.trace.record(
            "client_connect",
            "server",
            session=session.id,
            tenant=tenant,
            client=session.client,
            remote=session.remote,
        )
        return True

    def _do_insert(self, session: ClientSession, message: Message) -> bool:
        seq = message.meta.get("seq")
        basket = message.meta.get("basket")
        if not basket or message.columns is None or message.arrays is None:
            self._send_error(
                session, "insert",
                "INSERT needs meta.basket and column blocks", seq,
            )
            return True
        if not self.cell.catalog.has(str(basket)):
            self._send_error(
                session, "unknown-basket",
                f"no basket named {basket!r}", seq,
            )
            return True
        rows = message.row_count
        self.ingest.put(
            IngestBatch(
                str(basket),
                message.columns,
                message.arrays,
                rows,
                seq=seq,
                tenant=session.tenant,
                reply=session.send,
            )
        )
        session.rows_in += rows
        return True

    def _do_subscribe(self, session: ClientSession, message: Message) -> bool:
        seq = message.meta.get("seq")
        sql = message.meta.get("sql")
        existing = message.meta.get("query")
        try:
            with self._control:
                if existing is not None:
                    handle = self._find_query(str(existing))
                    owned = False
                elif sql is not None:
                    handle = self.cell.submit_continuous(
                        str(sql),
                        name=message.meta.get("name"),
                        tenant=session.tenant,
                    )
                    owned = True
                else:
                    raise ServerError(
                        "SUBSCRIBE needs meta.sql or meta.query"
                    )
        except ReproError as exc:
            self._send_error(session, "subscribe", str(exc), seq)
            return True
        if handle.name in session.subscriptions:
            self._send_error(
                session, "subscribe",
                f"already subscribed to {handle.name!r}", seq,
            )
            return True
        columns = [
            (c.name, c.atom)
            for c in handle.output_basket.user_columns
        ]
        binding = SubscriptionBinding(
            session,
            handle.name,
            columns,
            emitter=handle.emitter,
            on_drop=self._note_drop,
        )
        session.add_subscription(handle.name, handle, binding, owned)
        handle.emitter.subscribe(binding)
        session.send(
            Message(
                Command.ACK,
                {
                    "seq": seq,
                    "query": handle.name,
                    # "schema", not "columns": the latter marks a frame
                    # as tuple-bearing for the decoder
                    "schema": [[n, a.value] for n, a in columns],
                    "owned": owned,
                },
            )
        )
        return True

    def _find_query(self, name: str):
        for handle in self.cell.continuous_queries():
            if handle.name == name:
                return handle
        raise ServerError(f"no continuous query named {name!r}")

    def _do_unsubscribe(
        self, session: ClientSession, message: Message
    ) -> bool:
        seq = message.meta.get("seq")
        name = message.meta.get("query")
        entry = (
            session.remove_subscription(str(name))
            if name is not None
            else None
        )
        if entry is None:
            self._send_error(
                session, "unknown-subscription",
                f"session holds no subscription {name!r}", seq,
            )
            return True
        handle, binding, owned = entry
        handle.emitter.unsubscribe(binding)
        if owned:
            try:
                with self._control:
                    self.cell.remove_continuous(handle)
            except ReproError as exc:
                self._send_error(session, "unsubscribe", str(exc), seq)
                return True
        session.send(Message(Command.ACK, {"seq": seq, "query": name}))
        return True

    def _do_create(self, session: ClientSession, message: Message) -> bool:
        seq = message.meta.get("seq")
        sql = message.meta.get("sql")
        if not sql:
            self._send_error(session, "create", "CREATE needs meta.sql", seq)
            return True
        try:
            stmt = parse_statement(str(sql))
            if not isinstance(stmt, (CreateBasket, CreateTable)):
                raise ServerError(
                    "only CREATE BASKET / CREATE TABLE may cross the wire"
                )
            with self._control:
                self.cell.execute(str(sql))
        except ReproError as exc:
            self._send_error(session, "create", str(exc), seq)
            return True
        session.send(Message(Command.ACK, {"seq": seq}))
        return True

    # ------------------------------------------------------------------
    # admission / throttling
    # ------------------------------------------------------------------
    def throttle_tenant(self, tenant: str, seconds: float) -> None:
        """Pause ``tenant``'s ingest readers for ``seconds`` from now."""
        deadline = time.monotonic() + seconds
        with self._throttle_lock:
            if deadline > self._throttled.get(tenant, 0.0):
                self._throttled[tenant] = deadline
        self.tenants_throttled += 1
        self._m_throttled.labels(tenant).inc()
        self.cell.trace.record(
            "tenant_throttled", "server", tenant=tenant, seconds=seconds
        )

    def _throttle_remaining(self, tenant: str) -> float:
        with self._throttle_lock:
            deadline = self._throttled.get(tenant)
            if deadline is None:
                return 0.0
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                del self._throttled[tenant]
                return 0.0
            return remaining

    def _on_event(self, event: TraceEvent) -> None:
        """Log subscriber: an over-budget tenant loses socket admission
        for a cooldown, throttling it at the edge instead of inside the
        engine."""
        if event.kind != "budget_breach":
            return
        scope, _, tenant = event.detail["scope"].partition(":")
        if scope == "tenant":
            self.throttle_tenant(tenant, self.config.admission_cooldown)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_error(
        self,
        session: ClientSession,
        code: str,
        text: str,
        seq: Optional[int] = None,
    ) -> None:
        self._m_errors.labels(code).inc()
        session.send_error(code, text, seq)

    def _note_drop(self, query: str, rows: int, outcome: str) -> None:
        """Session-queue overflow accounting (called by bindings)."""
        policy = self.config.backpressure
        self._m_dropped.labels(policy).inc()
        self.cell.trace.record(
            "queue_full", "server", query=query, rows=rows,
            policy=policy, outcome=outcome,
        )

    def sessions(self) -> List[ClientSession]:
        with self._conns_lock:
            return [c.session for c in self._conns.values()]

    def stats(self) -> Dict[str, Any]:
        """Structured snapshot for ``DataCell.stats()["server"]``."""
        sessions = self.sessions()
        with self._throttle_lock:
            throttled = {
                tenant: round(deadline - time.monotonic(), 3)
                for tenant, deadline in self._throttled.items()
                if deadline > time.monotonic()
            }
        return {
            "address": (
                f"{self.address[0]}:{self.address[1]}"
                if self.address
                else None
            ),
            "backpressure": self.config.backpressure,
            "sessions_open": len(sessions),
            "connections_total": self.connections_total,
            "http_requests": self.http_requests,
            "sessions": {s.id: s.stats() for s in sessions},
            "ingest": {
                "pending_batches": self.ingest.pending(),
                "batches_total": self.ingest.total_batches,
                "rows_total": self.ingest.total_rows,
                "applied_rows": self.pump.total_rows,
                "errors": self.pump.total_errors,
            },
            "dropped_frames": sum(s.dropped_frames for s in sessions),
            "backpressure_blocks": sum(s.queue.blocks for s in sessions),
            "throttled_tenants": throttled,
        }
