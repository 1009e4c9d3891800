"""Minimal RFC 6455 WebSocket support for the server's frame transport.

The server speaks one frame format (:mod:`repro.server.protocol`); a
WebSocket client simply wraps each protocol frame in one *binary*
WebSocket message.  This module implements just enough of RFC 6455 for
that: the HTTP upgrade handshake (``Sec-WebSocket-Accept``), masked
client-to-server frame decoding with fragment reassembly, unmasked
server-to-client binary frames, and ping/pong/close handling.  Text
frames are a protocol error — the payload is binary by construction.
"""

from __future__ import annotations

import base64
import hashlib
import struct
from typing import Dict, List, Tuple

from ..errors import ProtocolError

__all__ = [
    "WS_GUID",
    "accept_key",
    "handshake_response",
    "parse_http_headers",
    "WebSocketCodec",
]

WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


def accept_key(key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def parse_http_headers(raw: bytes) -> Tuple[str, Dict[str, str]]:
    """Parse an HTTP request head; returns (request line, lowercase
    header map).  ``raw`` must end at the blank line."""
    lines = raw.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return lines[0] if lines else "", headers


def handshake_response(headers: Dict[str, str]) -> bytes:
    """The 101 Switching Protocols reply, or raise on a bad upgrade."""
    if headers.get("upgrade", "").lower() != "websocket":
        raise ProtocolError("not a WebSocket upgrade request")
    key = headers.get("sec-websocket-key")
    if not key:
        raise ProtocolError("upgrade request lacks Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
        "\r\n"
    ).encode("ascii")


class WebSocketCodec:
    """Stateful decoder of client frames / encoder of server frames."""

    def __init__(self, max_message_bytes: int = 64 * 1024 * 1024):
        self.max_message_bytes = max_message_bytes
        self._buffer = bytearray()
        self._fragments: List[bytes] = []
        self.closed = False

    # -- decoding (client → server; frames are masked) -----------------
    def feed(self, data: bytes) -> Tuple[List[bytes], List[bytes]]:
        """Absorb bytes; returns ``(messages, replies)`` where
        ``messages`` are complete binary payloads and ``replies`` are
        control frames (pong/close echoes) to write back."""
        self._buffer.extend(data)
        messages: List[bytes] = []
        replies: List[bytes] = []
        while True:
            parsed = self._parse_frame()
            if parsed is None:
                break
            fin, opcode, payload = parsed
            if opcode == OP_PING:
                replies.append(self._encode(OP_PONG, payload))
            elif opcode == OP_CLOSE:
                if not self.closed:
                    replies.append(self._encode(OP_CLOSE, payload[:2]))
                self.closed = True
            elif opcode in (OP_BINARY, OP_CONT):
                if opcode == OP_BINARY and self._fragments:
                    raise ProtocolError("interleaved WebSocket message")
                if opcode == OP_CONT and not self._fragments:
                    raise ProtocolError("WebSocket continuation w/o start")
                self._fragments.append(payload)
                if sum(len(f) for f in self._fragments) \
                        > self.max_message_bytes:
                    raise ProtocolError("WebSocket message too large")
                if fin:
                    messages.append(b"".join(self._fragments))
                    self._fragments = []
            elif opcode == OP_TEXT:
                raise ProtocolError(
                    "text WebSocket frames are not part of the protocol "
                    "(send protocol frames as binary messages)"
                )
            elif opcode == OP_PONG:
                pass  # unsolicited pongs are legal no-ops
            else:
                raise ProtocolError(f"bad WebSocket opcode {opcode:#x}")
        return messages, replies

    def _parse_frame(self):
        buf = self._buffer
        if len(buf) < 2:
            return None
        b0, b1 = buf[0], buf[1]
        fin = bool(b0 & 0x80)
        if b0 & 0x70:
            raise ProtocolError("WebSocket RSV bits set without extension")
        opcode = b0 & 0x0F
        masked = bool(b1 & 0x80)
        if not masked:
            raise ProtocolError("client WebSocket frames must be masked")
        length = b1 & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            (length,) = struct.unpack_from(">H", buf, offset)
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            (length,) = struct.unpack_from(">Q", buf, offset)
            offset += 8
        if length > self.max_message_bytes:
            raise ProtocolError("WebSocket frame too large")
        if len(buf) < offset + 4 + length:
            return None
        mask = bytes(buf[offset : offset + 4])
        offset += 4
        payload = bytes(buf[offset : offset + length])
        del buf[: offset + length]
        unmasked = bytes(
            b ^ mask[i % 4] for i, b in enumerate(payload)
        )
        return fin, opcode, unmasked

    # -- encoding (server → client; frames are unmasked) ---------------
    @staticmethod
    def _encode(opcode: int, payload: bytes) -> bytes:
        head = bytearray([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head.append(n)
        elif n < 1 << 16:
            head.append(126)
            head.extend(struct.pack(">H", n))
        else:
            head.append(127)
            head.extend(struct.pack(">Q", n))
        return bytes(head) + payload

    @classmethod
    def encode_binary(cls, payload: bytes) -> bytes:
        return cls._encode(OP_BINARY, payload)

    @classmethod
    def encode_close(cls, code: int = 1000) -> bytes:
        return cls._encode(OP_CLOSE, struct.pack(">H", code))

    @staticmethod
    def mask_client_frame(opcode: int, payload: bytes, mask: bytes) -> bytes:
        """Build a masked client-side frame (tests and the CLI client)."""
        if len(mask) != 4:
            raise ProtocolError("WebSocket mask must be 4 bytes")
        head = bytearray([0x80 | opcode])
        n = len(payload)
        if n < 126:
            head.append(0x80 | n)
        elif n < 1 << 16:
            head.append(0x80 | 126)
            head.extend(struct.pack(">H", n))
        else:
            head.append(0x80 | 127)
            head.extend(struct.pack(">Q", n))
        head.extend(mask)
        return bytes(head) + bytes(
            b ^ mask[i % 4] for i, b in enumerate(payload)
        )
