"""Unit tests for the server wire protocol and the WebSocket codec."""

import struct

import numpy as np
import pytest

from repro.durability.serde import pack_frame
from repro.errors import ProtocolError
from repro.kernel.types import INT_NIL, AtomType
from repro.server.protocol import (
    Command,
    FrameDecoder,
    Message,
    arrays_from_rows,
    data_message,
    decode_payload,
    encode_message,
    error_message,
    insert_message,
    rows_from_arrays,
)
from repro.server.ws import (
    OP_BINARY,
    OP_CLOSE,
    OP_CONT,
    OP_PING,
    OP_TEXT,
    WebSocketCodec,
    accept_key,
    handshake_response,
    parse_http_headers,
)

COLUMNS = [("price", AtomType.INT), ("qty", AtomType.DBL), ("sym", AtomType.STR)]
ROWS = [(120, 1.5, "X"), (90, 0.25, None), (7, -3.0, "multi\nline")]


class TestFraming:
    def test_insert_roundtrip(self):
        frame = encode_message(insert_message("trades", COLUMNS, ROWS, seq=5))
        (message,) = FrameDecoder().feed(frame)
        assert message.command is Command.INSERT
        assert message.meta == {"basket": "trades", "seq": 5}
        assert message.columns == COLUMNS
        assert message.rows() == ROWS
        assert message.row_count == 3

    def test_data_roundtrip_empty(self):
        frame = encode_message(
            data_message("q", COLUMNS, arrays_from_rows(COLUMNS, []))
        )
        (message,) = FrameDecoder().feed(frame)
        assert message.rows() == []
        assert message.row_count == 0

    def test_data_carries_nils_as_sentinels(self):
        """DATA frames are encoded from tails: a numeric NIL travels as
        its sentinel and decodes to ``None``."""
        columns = [("a", AtomType.INT), ("b", AtomType.DBL)]
        arrays = [
            np.array([INT_NIL, 1], dtype=np.int32),
            np.array([np.nan, 2.0]),
        ]
        frame = encode_message(data_message("q", columns, arrays))
        (message,) = FrameDecoder().feed(frame)
        assert message.rows() == [(None, None), (1, 2.0)]

    def test_control_roundtrip(self):
        frame = encode_message(error_message("boom", "it broke", seq=9))
        (message,) = FrameDecoder().feed(frame)
        assert message.command is Command.ERROR
        assert message.meta == {"code": "boom", "message": "it broke", "seq": 9}
        assert message.columns is None

    def test_byte_by_byte_feed(self):
        frame = encode_message(insert_message("t", COLUMNS, ROWS, seq=1))
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert len(out) == 1
        assert out[0].rows() == ROWS
        assert decoder.pending_bytes == 0

    def test_many_frames_one_feed(self):
        frames = b"".join(
            encode_message(error_message("e", str(i))) for i in range(5)
        )
        messages = FrameDecoder().feed(frames)
        assert [m.meta["message"] for m in messages] == [
            "0", "1", "2", "3", "4"
        ]

    def test_crc_corruption_poisons_the_stream(self):
        frame = bytearray(encode_message(error_message("e", "x")))
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            FrameDecoder().feed(bytes(frame))

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        header = struct.pack("<IQ", 0, 1 << 20)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)

    def test_unknown_opcode(self):
        payload = struct.pack("<BI", 99, 2) + b"{}"
        with pytest.raises(ProtocolError, match="opcode"):
            FrameDecoder().feed(pack_frame(payload))

    def test_bad_meta_json(self):
        payload = struct.pack("<BI", int(Command.PING), 3) + b"not"
        with pytest.raises(ProtocolError, match="metadata"):
            decode_payload(payload)

    def test_columns_meta_key_announces_blocks(self):
        """A control frame whose meta smuggles a ``columns`` key is read
        as tuple-bearing and fails — why ACKs carry ``schema`` instead."""
        meta = b'{"columns":[["v","int"]]}'
        payload = struct.pack("<BI", int(Command.ACK), len(meta)) + meta
        with pytest.raises(ProtocolError, match="truncated column block"):
            decode_payload(payload)

    def test_specs_arrays_mismatch_rejected(self):
        message = Message(Command.DATA, {"query": "q"}, COLUMNS, [])
        with pytest.raises(ProtocolError, match="3 column specs"):
            encode_message(message)


class TestRowConversion:
    def test_roundtrip(self):
        arrays = arrays_from_rows(COLUMNS, ROWS)
        assert rows_from_arrays(COLUMNS, arrays) == ROWS

    def test_arity_mismatch(self):
        with pytest.raises(ProtocolError, match="fields"):
            arrays_from_rows(COLUMNS, [(1, 2.0)])

    def test_bad_value_names_the_column(self):
        with pytest.raises(ProtocolError, match="'price'"):
            arrays_from_rows(COLUMNS, [("notanint", 1.0, "x")])


def _mask(opcode, payload, mask=b"\x01\x02\x03\x04"):
    return WebSocketCodec.mask_client_frame(opcode, payload, mask)


class TestWebSocket:
    def test_accept_key_rfc_vector(self):
        # the worked example from RFC 6455 §1.3
        assert (
            accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_response(self):
        raw = (
            b"GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
        )
        line, headers = parse_http_headers(raw)
        assert line.startswith("GET")
        reply = handshake_response(headers)
        assert b"101 Switching Protocols" in reply
        assert b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in reply

    def test_handshake_requires_upgrade(self):
        with pytest.raises(ProtocolError):
            handshake_response({"sec-websocket-key": "x"})
        with pytest.raises(ProtocolError):
            handshake_response({"upgrade": "websocket"})

    def test_binary_roundtrip(self):
        codec = WebSocketCodec()
        messages, replies = codec.feed(_mask(OP_BINARY, b"hello frame"))
        assert messages == [b"hello frame"] and replies == []

    def test_fragmented_message_reassembled(self):
        codec = WebSocketCodec()
        first = bytearray(_mask(OP_BINARY, b"he"))
        first[0] &= 0x7F  # clear FIN
        messages, _ = codec.feed(bytes(first))
        assert messages == []
        messages, _ = codec.feed(_mask(OP_CONT, b"llo"))
        assert messages == [b"hello"]

    def test_ping_gets_ponged(self):
        codec = WebSocketCodec()
        messages, replies = codec.feed(_mask(OP_PING, b"probe"))
        assert messages == []
        assert len(replies) == 1 and replies[0][0] & 0x0F == 0xA

    def test_close_echoed_once(self):
        codec = WebSocketCodec()
        _, replies = codec.feed(_mask(OP_CLOSE, struct.pack(">H", 1000)))
        assert codec.closed and len(replies) == 1

    def test_text_frames_are_protocol_errors(self):
        with pytest.raises(ProtocolError, match="binary"):
            WebSocketCodec().feed(_mask(OP_TEXT, b"nope"))

    def test_unmasked_client_frame_rejected(self):
        unmasked = WebSocketCodec.encode_binary(b"x")
        with pytest.raises(ProtocolError, match="masked"):
            WebSocketCodec().feed(unmasked)

    def test_large_payload_length_encoding(self):
        payload = bytes(70_000)
        codec = WebSocketCodec()
        messages, _ = codec.feed(_mask(OP_BINARY, payload))
        assert messages == [payload]

    def test_frames_carry_protocol_frames(self):
        """The composition the server speaks: protocol frame in one
        binary WS message, reassembled then frame-decoded."""
        inner = encode_message(insert_message("t", COLUMNS, ROWS, seq=2))
        codec = WebSocketCodec()
        messages, _ = codec.feed(_mask(OP_BINARY, inner))
        (message,) = FrameDecoder().feed(messages[0])
        assert message.rows() == ROWS
