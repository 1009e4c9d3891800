"""The HTTP telemetry views: routing, formats, and the one front door.

Routing is :func:`telemetry_response`, a pure request→response function
tested without a socket; the live tests GET the views from the
server's own port, beside framed-TCP and WebSocket sessions.
"""

import json
import logging
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.clock import LogicalClock
from repro.core.engine import DataCell
from repro.kernel.types import AtomType
from repro.obs.metrics import MetricsRegistry
from repro.obs.sysstreams import SystemStreamsConfig
from repro.server.client import DataCellClient
from repro.server.protocol import Command, FrameDecoder, Message, encode_message
from repro.server.server import telemetry_response
from repro.server.session import ServerConfig
from repro.server.ws import OP_BINARY, WebSocketCodec

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_cell():
    clock = LogicalClock()
    cell = DataCell(
        clock=clock,
        metrics=MetricsRegistry(),
        system_streams=SystemStreamsConfig(interval=1.0),
    )
    cell.execute("create basket sensors (sensor int, temp double)")
    cell.submit_continuous(CQ, name="hot")
    cell.insert("sensors", [(1, 45.0), (2, 20.0)])
    cell.run_until_quiescent()
    clock.advance(1.0)
    cell.run_until_quiescent()
    return cell, clock


class _Views:
    """GETs against one cell through the pure routing function."""

    def __init__(self, cell):
        self.cell = cell

    def handle(self, target):
        return telemetry_response(self.cell, target)


class TestRouting:
    """telemetry_response() is pure request→response: no sockets."""

    @pytest.fixture()
    def server(self):
        cell, _ = build_cell()
        return _Views(cell)

    def test_metrics(self, server):
        status, ctype, body = server.handle("/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4"
        assert "datacell_basket_inserted_total" in body

    def test_dashboard(self, server):
        status, _, body = server.handle("/dashboard")
        assert status == 200
        assert "scheduler:" in body
        assert "System streams" in body

    def test_stats_json(self, server):
        status, ctype, body = server.handle("/stats")
        assert status == 200
        assert ctype == "application/json"
        doc = json.loads(body)
        assert doc["queries"]["hot"]["delivered"] == 1
        assert doc["sys"]["samples"] == 1

    def test_healthz(self, server):
        assert server.handle("/healthz") == (200, "text/plain", "ok\n")

    def test_explain_known_query(self, server):
        status, _, body = server.handle("/explain/hot")
        assert status == 200
        assert "hot" in body

    def test_explain_unknown_query(self, server):
        status, _, body = server.handle("/explain/nope")
        assert status == 404

    def test_sys_tail(self, server):
        status, ctype, body = server.handle("/sys/metrics?limit=2")
        assert status == 200
        doc = json.loads(body)
        assert doc["basket"] == "sys.metrics"
        assert len(doc["rows"]) == 2
        assert doc["depth"] >= 2
        assert "metric" in doc["columns"]

    def test_sys_tail_full_name(self, server):
        status, _, body = server.handle("/sys/sys.baskets")
        assert status == 200
        assert json.loads(body)["basket"] == "sys.baskets"

    def test_sys_tail_unknown(self, server):
        status, _, _ = server.handle("/sys/nope")
        assert status == 404

    def test_sys_tail_bad_limit(self, server):
        status, _, _ = server.handle("/sys/metrics?limit=abc")
        assert status == 400

    def test_unknown_path(self, server):
        status, _, _ = server.handle("/wat")
        assert status == 404

    def test_engine_error_becomes_500(self, server):
        server.cell.stats = None  # break the engine surface
        status, _, body = server.handle("/stats")
        assert status == 500
        assert "TypeError" in body

    def test_sys_disabled_is_404(self):
        cell = DataCell(metrics=MetricsRegistry())
        status, _, body = telemetry_response(cell, "/sys/metrics")
        assert status == 404
        assert "enabled" in body


def _get(base, path):
    """(status, body) of one GET, error statuses included."""
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _raw_reply(address, request):
    """Send raw request bytes; read the reply until the server closes."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


def _settled(read, timeout=10.0):
    """``read()`` once it returns the same value three reads running."""
    deadline = time.monotonic() + timeout
    values = [read()]
    while values[-3:] != [values[-1]] * 3 and time.monotonic() < deadline:
        time.sleep(0.02)
        values.append(read())
    return values[-1]


class _WsSession:
    """A minimal WebSocket client speaking the server's frames."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.sendall(
            b"GET / HTTP/1.1\r\n"
            b"Host: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
        )
        head = b""
        while b"\r\n\r\n" not in head:
            head += self.sock.recv(65536)
        head, _, tail = head.partition(b"\r\n\r\n")
        assert b"101 Switching Protocols" in head
        self.buffer = bytearray(tail)
        self.decoder = FrameDecoder()

    def send(self, message):
        self.sock.sendall(WebSocketCodec.mask_client_frame(
            OP_BINARY, encode_message(message), b"\x0a\x0b\x0c\x0d"
        ))

    def read(self):
        while True:
            if len(self.buffer) >= 2:
                length, offset = self.buffer[1] & 0x7F, 2
                if length == 126:
                    (length,) = struct.unpack_from(">H", self.buffer, 2)
                    offset = 4
                if len(self.buffer) >= offset + length:
                    payload = bytes(self.buffer[offset:offset + length])
                    del self.buffer[:offset + length]
                    messages = self.decoder.feed(payload)
                    if messages:
                        return messages[0]
                    continue
            self.buffer.extend(self.sock.recv(65536))

    def close(self):
        self.sock.close()


class TestLiveServer:
    def test_round_trip_over_a_socket(self):
        cell, _ = build_cell()
        cell.start()
        server = cell.serve()
        base = "http://{}:{}".format(*server.address)
        try:
            with urllib.request.urlopen(base + "/metrics") as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                assert resp.headers["Connection"] == "close"
                assert b"datacell_" in resp.read()
            with urllib.request.urlopen(base + "/sys/queries?limit=1") as resp:
                doc = json.loads(resp.read())
                assert doc["rows"][0][0] == "hot"
            assert _get(base, "/missing")[0] == 404
            assert server.stats()["http_requests"] == 3
        finally:
            assert cell.stop() == []
        assert cell.server is None

    def test_stop_without_server_is_fine(self):
        cell, _ = build_cell()
        cell.stop()

    def test_cli_serves_telemetry_on_its_port(self):
        # --http is inert: the telemetry URL is the listen port's
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli",
             "--port", "0", "--http", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            listening = proc.stdout.readline().strip()
            assert listening.startswith("datacell listening on ")
            address = listening.rsplit(" ", 1)[1]
            telemetry = proc.stderr.readline().strip()
            assert telemetry == f"telemetry at http://{address}"
            status, body = _get(f"http://{address}", "/metrics")
            assert status == 200 and b"datacell_" in body
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        assert proc.returncode == 0


class TestOneFrontDoor:
    """Framed TCP, WebSocket and HTTP GET share the server's one port."""

    @pytest.fixture()
    def served(self):
        cell, _ = build_cell()
        cell.start()
        server = cell.serve(config=ServerConfig(max_sessions=2))
        yield cell, server
        assert cell.stop() == []

    def test_three_kinds_of_client_concurrently(self, served):
        cell, server = served
        address = server.address
        base = "http://{}:{}".format(*address)
        results = {}

        def tcp():
            with DataCellClient(*address) as db:
                # its own basket: queries over one basket compete
                db.create("create basket wire (v int)")
                db.subscribe(
                    "select w.v from [select * from wire] as w", name="w"
                )
                db.insert("wire", [("v", AtomType.INT)], [(7,)])
                results["tcp"] = db.poll("w", timeout=10.0)

        def websocket():
            ws = _WsSession(address)
            try:
                ws.send(Message(Command.HELLO, {"version": 1}))
                assert ws.read().command is Command.HELLO_OK
                ws.send(Message(Command.PING, {"seq": 9}))
                results["ws"] = ws.read().meta["seq"]
            finally:
                ws.close()

        def http():
            for _ in range(5):
                status, body = _get(base, "/metrics")
                assert status == 200 and b"datacell_" in body
                status, body = _get(base, "/sys/queries")
                assert status == 200 and json.loads(body)["rows"]
            results["http"] = True

        errors = []

        def run(fn):
            try:
                fn()
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(fn,))
            for fn in (tcp, websocket, http)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors, errors
        assert results == {"tcp": [(7,)], "ws": 9, "http": True}
        assert server.stats()["http_requests"] == 10

    def test_get_is_not_a_session(self, served):
        cell, server = served
        base = "http://{}:{}".format(*server.address)
        # fill the server to max_sessions: a GET must still be answered
        with DataCellClient(*server.address), DataCellClient(
            *server.address
        ):
            metrics = cell.metrics
            # the writer counts a HELLO_OK after its client may read it
            bytes_out = _settled(
                lambda: metrics.value("datacell_server_bytes_out_total")
            )
            frames_out = metrics.value("datacell_server_frames_out_total")
            assert frames_out == 2
            before = server.stats()
            assert before["sessions_open"] == 2
            assert _get(base, "/healthz") == (200, b"ok\n")
            after = server.stats()
            assert after["sessions_open"] == before["sessions_open"]
            assert after["connections_total"] == before["connections_total"]
            assert after["http_requests"] == before["http_requests"] + 1
            assert (
                metrics.value("datacell_server_bytes_out_total") == bytes_out
            )
            assert (
                metrics.value("datacell_server_frames_out_total")
                == frames_out
            )
            assert metrics.value("datacell_server_sessions") == 2
            status, body = _get(base, "/top")
            assert status == 200 and b"Top queries by CPU" in body
        dashboard = cell.render_dashboard()
        assert f"http={server.stats()['http_requests']}" in dashboard

    def test_upgrade_without_key_is_400(self, served):
        _, server = served
        reply = _raw_reply(
            server.address,
            b"GET / HTTP/1.1\r\nUpgrade: websocket\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert server.stats()["http_requests"] == 0

    def test_oversized_head_is_431_not_an_unhandled_error(
        self, served, caplog
    ):
        _, server = served
        caplog.set_level(logging.ERROR, logger="asyncio")
        reply = _raw_reply(
            server.address,
            b"GET /metrics HTTP/1.1\r\nX-Big: " + b"a" * 70_000
            + b"\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert not [
            r for r in caplog.records if "Unhandled exception" in r.message
        ]
        # the server still answers afterwards
        base = "http://{}:{}".format(*server.address)
        assert _get(base, "/healthz") == (200, b"ok\n")


class TestRoutingResources:
    """?n= bounding on /sys/<basket> tails and the /top endpoint."""

    @pytest.fixture()
    def server(self):
        cell, _ = build_cell()
        return _Views(cell)

    def test_sys_tail_n_param(self, server):
        status, _, body = server.handle("/sys/metrics?n=2")
        assert status == 200
        assert len(json.loads(body)["rows"]) == 2

    def test_sys_tail_n_wins_over_limit(self, server):
        status, _, body = server.handle("/sys/metrics?n=1&limit=3")
        assert status == 200
        assert len(json.loads(body)["rows"]) == 1

    def test_sys_tail_bad_n(self, server):
        status, _, _ = server.handle("/sys/metrics?n=abc")
        assert status == 400

    def test_top(self, server):
        status, _, body = server.handle("/top")
        assert status == 200
        assert "Top queries by CPU" in body
        assert "hot" in body

    def test_top_bounded(self, server):
        status, _, body = server.handle("/top?n=0")
        assert status == 200
        assert "hot" not in body

    def test_top_bad_n(self, server):
        status, _, _ = server.handle("/top?n=abc")
        assert status == 400


class TestEmptyStates:
    """The surface stays well-formed before any queries exist or fire."""

    def test_no_queries_registered(self):
        cell = DataCell(metrics=MetricsRegistry())
        status, _, body = telemetry_response(cell, "/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["queries"] == {}
        assert doc["resources"]["engine"]["accounts"] == 0
        status, _, body = telemetry_response(cell, "/dashboard")
        assert status == 200
        assert "scheduler:" in body
        status, _, body = telemetry_response(cell, "/top")
        assert status == 200
        assert "Top queries by CPU" in body

    def test_query_fired_zero_times(self):
        cell = DataCell(metrics=MetricsRegistry())
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="cold")
        status, _, body = telemetry_response(cell, "/stats")
        assert status == 200
        doc = json.loads(body)
        assert doc["queries"]["cold"]["delivered"] == 0
        resources = doc["resources"]["queries"]["cold"]
        assert resources["firings"] == 0
        assert resources["cpu_seconds"] == 0
        status, _, body = telemetry_response(cell, "/dashboard")
        assert status == 200
        assert "cold" in body
        status, _, body = telemetry_response(cell, "/top")
        assert status == 200
        assert "cold" in body  # listed with all-zero usage
