"""A synchronous client for the repro.server wire protocol.

Library use::

    from repro.server.client import DataCellClient

    with DataCellClient("127.0.0.1", 9462, tenant="acme") as db:
        db.create("create basket trades (price int, sym str)")
        db.subscribe("select t.price, t.sym from "
                     "[select * from trades where trades.price > 100] as t",
                     name="big")
        db.insert("trades", [("price", AtomType.INT),
                             ("sym", AtomType.STR)],
                  [(120, "X"), (90, "Y")])
        rows = db.poll("big", timeout=2.0)

One socket, one thread: commands block until their ``ACK``/``ERROR``
arrives (matched by ``seq``); ``DATA`` frames arriving in between are
filed into per-query inboxes read with :meth:`poll`.  The same class is
the CLI used in the README quickstart (``python -m repro.server.client``).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ProtocolError, ServerError
from ..kernel.types import AtomType
from .protocol import (
    PROTOCOL_VERSION,
    ColumnSpec,
    Command,
    FrameDecoder,
    Message,
    encode_message,
    insert_message,
)

__all__ = ["DataCellClient", "main"]

Row = Tuple[Any, ...]


class DataCellClient:
    """Blocking TCP client; one instance per connection, not thread-safe."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        client: str = "repro-client",
        timeout: float = 10.0,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.client = client
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._seq = 0
        self._inbox: Dict[str, List[Row]] = {}
        self._events: List[Message] = []
        self.session: Optional[int] = None
        self.server_meta: Dict[str, Any] = {}
        #: columns of each subscribed query, filled from SUBSCRIBE acks
        self.columns: Dict[str, List[ColumnSpec]] = {}

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> Dict[str, Any]:
        """Open the socket and complete the HELLO handshake."""
        if self._sock is not None:
            raise ServerError("client already connected")
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send(
            Message(
                Command.HELLO,
                {
                    "version": PROTOCOL_VERSION,
                    "tenant": self.tenant,
                    "client": self.client,
                },
            )
        )
        reply = self._wait(
            lambda m: m.command in (Command.HELLO_OK, Command.ERROR)
        )
        if reply.command is Command.ERROR:
            self.close(send_bye=False)
            raise ServerError(
                f"server refused session: {reply.meta.get('code')}: "
                f"{reply.meta.get('message')}"
            )
        self.session = reply.meta.get("session")
        self.server_meta = dict(reply.meta)
        return self.server_meta

    def close(self, send_bye: bool = True) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if send_bye:
            try:
                sock.sendall(encode_message(Message(Command.BYE, {})))
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DataCellClient":
        self.connect()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # commands (each blocks for its ACK)
    # ------------------------------------------------------------------
    def create(self, sql: str) -> Dict[str, Any]:
        return self._command(Message(Command.CREATE, {"sql": sql}))

    def insert(
        self,
        basket: str,
        columns: Sequence[ColumnSpec],
        rows: Sequence[Sequence[Any]],
        wait: bool = True,
    ) -> Optional[Dict[str, Any]]:
        """Send one columnar INSERT batch.

        ``wait=False`` streams without waiting for the ACK (pipelined
        mode); ACKs are still consumed lazily by later waits, keeping the
        sequence numbers matched.
        """
        seq = self._next_seq()
        message = insert_message(basket, columns, rows, seq=seq)
        self._send(message)
        if not wait:
            return None
        return self._await_ack(seq)

    def subscribe(
        self,
        sql: Optional[str] = None,
        query: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        """Register (``sql=``) or attach to (``query=``) a continuous
        query; returns the query name rows will arrive under."""
        meta: Dict[str, Any] = {}
        if sql is not None:
            meta["sql"] = sql
        if query is not None:
            meta["query"] = query
        if name is not None:
            meta["name"] = name
        ack = self._command(Message(Command.SUBSCRIBE, meta))
        qname = str(ack["query"])
        self.columns[qname] = [
            (str(n), AtomType(a)) for n, a in ack.get("schema", [])
        ]
        self._inbox.setdefault(qname, [])
        return qname

    def unsubscribe(self, query: str) -> Dict[str, Any]:
        return self._command(
            Message(Command.UNSUBSCRIBE, {"query": query})
        )

    def ping(self) -> float:
        """Round-trip a PING; returns elapsed seconds."""
        seq = self._next_seq()
        started = time.perf_counter()
        self._send(Message(Command.PING, {"seq": seq}))
        self._wait(
            lambda m: m.command is Command.PONG
            and m.meta.get("seq") == seq
        )
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def poll(
        self, query: str, timeout: float = 0.0, min_rows: int = 1
    ) -> List[Row]:
        """Drain delivered rows for ``query``; waits up to ``timeout``
        seconds for at least ``min_rows`` of them."""
        deadline = time.monotonic() + timeout
        inbox = self._inbox.setdefault(query, [])
        while len(inbox) < min_rows:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._pump(remaining)
        rows, self._inbox[query] = inbox, []
        return rows

    def drain_events(self) -> List[Message]:
        """Out-of-band frames received so far (server ERROR/BYE)."""
        events, self._events = self._events, []
        return events

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, message: Message) -> None:
        if self._sock is None:
            raise ServerError("client is not connected")
        self._sock.sendall(encode_message(message))

    def _command(self, message: Message) -> Dict[str, Any]:
        seq = self._next_seq()
        message.meta["seq"] = seq
        self._send(message)
        return self._await_ack(seq)

    def _await_ack(self, seq: int) -> Dict[str, Any]:
        reply = self._wait(
            lambda m: m.command in (Command.ACK, Command.ERROR)
            and m.meta.get("seq") == seq
        )
        if reply.command is Command.ERROR:
            raise ServerError(
                f"{reply.meta.get('code')}: {reply.meta.get('message')}"
            )
        return dict(reply.meta)

    def _wait(self, accept: Any) -> Message:
        """Pump frames until ``accept(message)`` matches one."""
        deadline = time.monotonic() + self.timeout
        while True:
            for message in self._pump(deadline - time.monotonic()):
                if accept(message):
                    return message

    def _pump(self, timeout: float) -> List[Message]:
        """Read once from the socket, routing DATA frames to inboxes;
        returns the non-DATA messages decoded from this read."""
        if self._sock is None:
            raise ServerError("client is not connected")
        if timeout <= 0:
            raise ServerError("timed out waiting for the server")
        self._sock.settimeout(timeout)
        try:
            data = self._sock.recv(65536)
        except socket.timeout:
            raise ServerError(
                "timed out waiting for the server"
            ) from None
        if not data:
            raise ServerError("server closed the connection")
        out: List[Message] = []
        for message in self._decoder.feed(data):
            if message.command is Command.DATA:
                query = str(message.meta.get("query"))
                self._inbox.setdefault(query, []).extend(message.rows())
            elif message.command in (Command.ERROR, Command.BYE) and (
                message.meta.get("seq") is None
            ):
                self._events.append(message)
                out.append(message)
            else:
                out.append(message)
        return out


# ----------------------------------------------------------------------
# CLI: python -m repro.server.client
# ----------------------------------------------------------------------
def _parse_atom(text: str) -> AtomType:
    try:
        return AtomType(text.strip().lower())
    except ValueError:
        raise SystemExit(f"unknown atom type {text!r}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.client",
        description="Interact with a running DataCell server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tenant", default="default")
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("create", help="run CREATE BASKET/TABLE ddl")
    p.add_argument("sql")
    p = sub.add_parser("insert", help="insert rows from json lines")
    p.add_argument("basket")
    p.add_argument(
        "--columns", required=True,
        help="comma list of name:atom, e.g. price:int,sym:str",
    )
    p.add_argument(
        "--rows", required=True,
        help="JSON array of rows, e.g. '[[120,\"X\"],[90,\"Y\"]]'",
    )
    p = sub.add_parser("subscribe", help="subscribe and print deliveries")
    p.add_argument("sql")
    p.add_argument("--name")
    p.add_argument(
        "--for", dest="duration", type=float, default=10.0,
        help="seconds to keep printing rows (default 10)",
    )
    p = sub.add_parser("ping", help="measure a protocol round trip")
    opts = parser.parse_args(argv)

    with DataCellClient(opts.host, opts.port, tenant=opts.tenant) as db:
        if opts.verb == "create":
            db.create(opts.sql)
            print("ok")
        elif opts.verb == "insert":
            columns = []
            for part in opts.columns.split(","):
                name, _, atom = part.partition(":")
                columns.append((name.strip(), _parse_atom(atom)))
            rows = json.loads(opts.rows)
            ack = db.insert(opts.basket, columns, rows)
            print(f"inserted {ack.get('rows')} rows")
        elif opts.verb == "subscribe":
            qname = db.subscribe(opts.sql, name=opts.name)
            print(f"subscribed to {qname}; streaming...", file=sys.stderr)
            deadline = time.monotonic() + opts.duration
            while time.monotonic() < deadline:
                try:
                    for row in db.poll(qname, timeout=0.5):
                        print(json.dumps(list(row)))
                except ServerError:
                    break
        elif opts.verb == "ping":
            print(f"{db.ping() * 1000:.3f} ms")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
