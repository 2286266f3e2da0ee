"""The frame protocol of :mod:`repro.serving.protocol`.

Every shard-node and gateway message is a 4-byte big-endian length prefix
plus that many payload bytes.  These tests pin the framing contract over
real socket pairs: payloads round-trip exactly, a clean EOF between frames
reads as ``None``, oversized frames are refused on both ends before any
allocation, EOF in the middle of a frame is a typed error, and a payload
reader never reads past its end.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.serving.protocol import (
    OP_SCORE,
    FrameTooLargeError,
    Reader,
    RpcError,
    encode_score_request,
    pack_str,
    recv_frame,
    send_frame,
)


@pytest.fixture
def socket_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFrameProtocol:
    def test_frame_roundtrip(self, socket_pair):
        left, right = socket_pair
        send_frame(left, b"hello frames", 1024)
        assert recv_frame(right, 1024) == b"hello frames"
        send_frame(left, b"", 1024)
        assert recv_frame(right, 1024) == b""

    def test_clean_eof_is_none(self, socket_pair):
        left, right = socket_pair
        left.close()
        assert recv_frame(right, 1024) is None

    def test_send_rejects_oversized_payload(self, socket_pair):
        left, _right = socket_pair
        with pytest.raises(FrameTooLargeError):
            send_frame(left, b"x" * 100, max_frame_bytes=10)

    def test_recv_rejects_oversized_announcement(self, socket_pair):
        """A hostile/corrupt length prefix is refused before any allocation."""
        left, right = socket_pair
        left.sendall(struct.pack("!I", 1 << 30))
        with pytest.raises(FrameTooLargeError):
            recv_frame(right, max_frame_bytes=1024)

    def test_mid_frame_eof_raises(self, socket_pair):
        left, right = socket_pair
        left.sendall(struct.pack("!I", 100) + b"partial")
        left.close()
        with pytest.raises(RpcError):
            recv_frame(right, max_frame_bytes=1024)

    def test_score_request_roundtrip(self):
        payload = encode_score_request(3, "rooms", "very clean", 10, 20, [0, 5, 9])
        reader = Reader(payload)
        assert reader.read_u8() == OP_SCORE
        assert reader.read_u32() == 3
        assert reader.read_str() == "rooms"
        assert reader.read_str() == "very clean"
        assert reader.read_u32() == 10
        assert reader.read_u32() == 20
        assert reader.read_u8() == 1
        assert reader.read_u32_array(reader.read_u32()) == [0, 5, 9]
        assert reader.remaining == 0

    def test_truncated_payload_raises(self):
        reader = Reader(pack_str("abc")[:-1])
        with pytest.raises(RpcError):
            reader.read_str()
