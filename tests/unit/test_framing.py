"""Unit tests for the shared length-prefix + CRC-32 framing."""

import os

import pytest

from repro.common import framing
from repro.common.checkpoint_store import CheckpointStore


def test_roundtrip():
    payload = b"hello frame"
    frame = framing.encode_frame(framing.WIRE_MAGIC, payload)
    header, body = frame[: framing.HEADER_SIZE], frame[framing.HEADER_SIZE:]
    parsed = framing.parse_header(header, framing.WIRE_MAGIC)
    assert parsed is not None
    length, crc = parsed
    assert body == payload
    assert framing.payload_valid(body, length, crc)


def test_empty_payload_frames():
    frame = framing.encode_frame(framing.WIRE_MAGIC, b"")
    length, crc = framing.parse_header(frame, framing.WIRE_MAGIC)
    assert length == 0
    assert framing.payload_valid(b"", length, crc)


def test_wrong_magic_rejected():
    frame = framing.encode_frame(framing.SEGMENT_MAGIC, b"payload")
    assert framing.parse_header(frame, framing.WIRE_MAGIC) is None


def test_short_header_rejected():
    frame = framing.encode_frame(framing.WIRE_MAGIC, b"payload")
    assert framing.parse_header(frame[: framing.HEADER_SIZE - 1],
                                framing.WIRE_MAGIC) is None


def test_absurd_length_rejected():
    header = framing.HEADER.pack(
        framing.WIRE_MAGIC, framing.MAX_FRAME_BYTES + 1, 0
    )
    assert framing.parse_header(header, framing.WIRE_MAGIC) is None


@pytest.mark.parametrize("flip_at", [0, 3, 10])
def test_corrupted_payload_detected(flip_at):
    payload = b"x" * 16
    frame = framing.encode_frame(framing.WIRE_MAGIC, payload)
    length, crc = framing.parse_header(frame, framing.WIRE_MAGIC)
    body = bytearray(frame[framing.HEADER_SIZE:])
    body[flip_at] ^= 0xFF
    assert not framing.payload_valid(bytes(body), length, crc)


def test_truncated_payload_detected():
    payload = b"y" * 32
    frame = framing.encode_frame(framing.WIRE_MAGIC, payload)
    length, crc = framing.parse_header(frame, framing.WIRE_MAGIC)
    assert not framing.payload_valid(payload[:-1], length, crc)
    assert not framing.payload_valid(payload + b"z", length, crc)


def test_segment_files_use_shared_framing(tmp_path):
    """Checkpoint segments on disk are ordinary frames (magic PSMRSEG1)."""
    store = CheckpointStore(tmp_path / "replica-0")
    store.sync_chain([{"kind": "full", "sequence": 7, "payload": {"a": b"\x01"}}])
    [segment] = [
        name for name in os.listdir(store.directory) if name.endswith(".ckpt")
    ]
    data = (tmp_path / "replica-0" / segment).read_bytes()
    parsed = framing.parse_header(data[: framing.HEADER_SIZE],
                                  framing.SEGMENT_MAGIC)
    assert parsed is not None
    length, crc = parsed
    assert framing.payload_valid(data[framing.HEADER_SIZE:], length, crc)
    assert store.load_chain()[0]["sequence"] == 7
