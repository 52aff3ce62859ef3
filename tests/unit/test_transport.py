"""Unit tests for the transport package: wire protocol + TCP coordinator."""

import collections
import contextlib
import http.client
import os
import queue
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.common import codec, framing
from repro.common.errors import (
    CheckpointError, ConfigurationError, ProtocolError, RecoveryError,
)
from repro.common.faults import FaultPlane
from repro.core.command import Command, Response
from repro.frontend.app import create_app
from repro.frontend.server import run_app_in_thread
from repro.multicast.group import ALL_GROUPS
from repro.runtime.cluster import ResponseRouter
from repro.runtime.multicast import LocalAtomicMulticast
from repro.runtime.replica_proc import ReplicaProcess
from repro.runtime.transport import (
    DeliveryQueue,
    InprocTransport,
    TcpCoordinatorTransport,
    tcp,
    wire,
)
from repro.runtime.transport.pump import Link


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
def burst(*messages):
    """A ``d`` frame as :func:`wire.decode_payload` returns it: its
    ``(s, dst, body)`` messages, in order."""
    return {"t": "d", "msgs": list(messages)}


def encode(message):
    """The frames of ``message``: a decoded burst goes out the way the
    transport writes a run (:func:`wire.deliver_frames`), anything else
    through :func:`wire.encode_message`."""
    if message["t"] != "d":
        return wire.encode_message(message)
    return b"".join(
        wire.deliver_frames(
            [wire.ordered_part(*message) for message in message["msgs"]]
        )
    )


class TestWireEncoding:
    def test_message_roundtrips_through_a_frame(self):
        message = {"t": "d", "s": 7, "dst": "ALL", "b": b"\x00cmd"}
        data = wire.encode_message(message)
        parsed = framing.parse_header(
            data[: framing.HEADER_SIZE], framing.WIRE_MAGIC
        )
        assert parsed is not None
        length, crc = parsed
        payload = data[framing.HEADER_SIZE:]
        assert framing.payload_valid(payload, length, crc)
        # One ordered message is a burst of one.
        assert wire.decode_payload(payload) == burst((7, "ALL", b"\x00cmd"))

    def test_a_d_dict_with_a_link_sequence_still_encodes(self):
        # An ``ls`` key (``bench/run.py``'s ``wire_costs`` builds one) is
        # ignored: the frame is the dict's without it.
        message = {"t": "d", "s": 7, "dst": (1, 2), "b": b"cmd"}
        assert wire.encode_message({**message, "ls": 3}) == (
            wire.encode_message(message)
        )

    def test_destinations_roundtrip(self):
        assert wire.encode_destinations(ALL_GROUPS) == ALL_GROUPS
        assert wire.encode_destinations({3, 1, 2}) == (1, 2, 3)
        for destinations in (ALL_GROUPS, (1, 2)):
            frame = wire.encode_message(
                {"t": "d", "s": 0, "dst": destinations, "b": b""}
            )
            ((_s, decoded, _b),) = wire.decode_payload(
                frame[framing.HEADER_SIZE:]
            )["msgs"]
            assert decoded == destinations
            # Tuples stay tuples: hashable for the workers' plan cache.
            assert type(decoded) is type(destinations)

    def test_chain_roundtrip(self):
        chain = [
            {"kind": "full", "sequence": 4, "payload": {0: b"x"}},
            {"kind": "delta", "sequence": 9, "payload": {1: b"y"}},
        ]
        assert wire.decode_chain(wire.encode_chain(chain)) == chain

    def test_cut_helper(self):
        marker = wire.make_cut(17, 2, False)
        assert marker == {"cut": 17, "source": 2, "shard": False}
        update = wire.make_cut(18, None, True)
        assert update == {"cut": 18, "source": None, "shard": True}
        for cut in (marker, update):
            assert wire.decode_payload(wire.encode_message(
                {"t": "d", "s": 5, "dst": "ALL", "b": cut}
            )[framing.HEADER_SIZE:])["msgs"] == [(5, "ALL", cut)]

    def test_the_fixed_layouts_are_the_documented_bytes(self):
        command = Command(
            (-2, 9), "né", {}, size_bytes=7, destinations=frozenset({5, 3}),
            submitted_at=1.5,
        )
        body = codec.encode_command(command)
        assert body == (
            struct.pack(">BBqqIdHH", 0xC3, 2, -2, 9, 7, 1.5, 2, 3)
            + struct.pack(">2I", 3, 5) + "né".encode() + b"d\x00\x00\x00\x00"
        )
        deliver = {"t": "d", "s": 11, "dst": (3, 5), "b": body}
        ordered = struct.pack(">qBH2I", 11, 0, 2, 3, 5) + body
        assert wire.encode_message(deliver)[framing.HEADER_SIZE:] == (
            struct.pack(">BI", ord("d"), 1)
            + struct.pack(">I", len(ordered)) + ordered
        )
        marker = {"t": "d", "s": 1, "dst": "ALL", "b": {"k": None}}
        marked = (
            struct.pack(">qBH", 1, 1, 0xFFFF)
            + b"d\x00\x00\x00\x01s\x00\x00\x00\x01kN"
        )
        assert wire.encode_message(marker)[framing.HEADER_SIZE:] == (
            struct.pack(">BI", ord("d"), 1)
            + struct.pack(">I", len(marked)) + marked
        )
        # A run of them is one frame: per message only the length of its
        # ordered part is added.
        (header, payload) = wire.deliver_frames([ordered, marked])
        assert header == framing.HEADER.pack(
            framing.WIRE_MAGIC, len(payload), framing.crc32(payload)
        )
        assert payload == (
            struct.pack(">BI", ord("d"), 2)
            + struct.pack(">I", len(ordered)) + ordered
            + struct.pack(">I", len(marked)) + marked
        )
        responses = {"t": "r", "resps": (((1, 2), b"v", None), ((1, 3), None, "e"))}
        assert wire.encode_message(responses)[framing.HEADER_SIZE:] == (
            struct.pack(">BI", ord("r"), 2)
            + struct.pack(">qq", 1, 2) + b"b\x00\x00\x00\x01vN"
            + struct.pack(">qq", 1, 3) + b"Ns\x00\x00\x00\x01e"
        )

    @pytest.mark.parametrize(
        "fields",
        [
            {"uid": (2**63, 0)},
            {"uid": (0, -(2**63) - 1)},
            {"size_bytes": 2**32},
            {"size_bytes": -1},
            {"name": "n" * 65536},
            {"name": "é" * 32768},  # the limit is on bytes, not characters
            {"destinations": frozenset({2**32})},
            {"destinations": frozenset({-1})},
            {"destinations": frozenset(range(codec.MAX_DESTINATIONS + 1))},
        ],
        ids=lambda fields: next(iter(fields)),
    )
    def test_a_command_field_past_its_width_is_refused_not_wrapped(self, fields):
        fields = {"uid": (0, 0), "name": "read", **fields}
        with pytest.raises(ProtocolError):
            codec.encode_command(Command(**fields))

    def test_values_at_the_limits_round_trip(self):
        command = Command(
            (2**63 - 1, -(2**63)), "n" * 65535, {}, size_bytes=2**32 - 1,
            # Far above any mpl a GroupLayout / ShardMap can be built for.
            destinations=frozenset(
                range(2**32 - codec.MAX_DESTINATIONS, 2**32)
            ),
        )
        assert codec.decode_command(codec.encode_command(command)) == command
        message = {"t": "d", "s": 2**63 - 1, "dst": (2**32 - 1,), "b": b""}
        frame = wire.encode_message(message)
        assert wire.decode_payload(frame[framing.HEADER_SIZE:]) == burst(
            (2**63 - 1, (2**32 - 1,), b"")
        )

    @pytest.mark.parametrize(
        "destinations",
        [(2**32,), (-1,), tuple(range(codec.MAX_DESTINATIONS + 1))],
        ids=["group-id", "negative-group-id", "destination-count"],
    )
    def test_a_destination_field_past_its_width_is_refused(self, destinations):
        message = {"t": "d", "s": 0, "dst": destinations, "b": b""}
        with pytest.raises(ProtocolError):
            wire.encode_message(message)


# ----------------------------------------------------------------------
# Blocking socket helpers (the replica-process side)
# ----------------------------------------------------------------------
class TestSocketHelpers:
    def test_send_then_recv_roundtrips(self):
        left, right = socket.socketpair()
        try:
            assert wire.send_message(left, {"t": "hello", "replica": 0})
            assert wire.FrameReader(right).read() == [{"t": "hello", "replica": 0}]
        finally:
            left.close()
            right.close()

    def test_recv_returns_none_on_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert wire.FrameReader(right).read() is None
        finally:
            right.close()

    def test_recv_raises_wire_error_on_corrupt_frame(self):
        left, right = socket.socketpair()
        try:
            data = bytearray(wire.encode_message({"t": "start"}))
            data[-1] ^= 0xFF  # flip a payload byte: CRC must catch it
            left.sendall(bytes(data))
            with pytest.raises(wire.WireError):
                wire.FrameReader(right).read()
        finally:
            left.close()
            right.close()

    def test_send_reports_dead_connection(self):
        left, right = socket.socketpair()
        right.close()
        try:
            # One send may be buffered; the second hits EPIPE for sure.
            first = wire.send_message(left, {"t": "bye"})
            second = wire.send_message(left, {"t": "bye"})
            assert not (first and second)
        finally:
            left.close()

    def test_connect_with_backoff_gives_up_at_the_deadline(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here anymore
        with pytest.raises(OSError):
            wire.connect_with_backoff(
                "127.0.0.1", port, deadline_seconds=0.3, base_delay=0.01
            )

    def test_connect_with_backoff_survives_a_late_listener(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def listen_late():
            import time

            time.sleep(0.15)
            server.listen(1)

        thread = threading.Thread(target=listen_late)
        thread.start()
        try:
            conn = wire.connect_with_backoff(
                "127.0.0.1", port, deadline_seconds=5.0, base_delay=0.01
            )
            # The dial is bounded, the stream is not: an idle replica
            # must not mistake a read timeout for EOF.
            assert conn.gettimeout() is None
            # Nagle off: a small ``r`` frame must not wait for the delayed
            # ACK of the one before it (the 40 ms ``http-point`` tail).
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            conn.close()
        finally:
            thread.join()
            server.close()


# ----------------------------------------------------------------------
# Buffered frame reader (the replica-process side)
# ----------------------------------------------------------------------
#: What one read looks like on a replica's socket: ``d`` bursts (of one
#: message and of several) with control frames among them and one frame
#: far larger than the others.
STREAM = [
    burst((10, (1,), b"first")),
    burst((11, "ALL", b""), (12, (1, 2), b"x" * 90)),
    {"t": "stats?", "req": 4},
    {"t": "restore", "mode": "full", "sequence": 9, "state": b"s" * 700},
    burst((13, (2,), b"y" * 30), (15, "ALL", {"m": 1}), (14, (1,), b"")),
    {"t": "bye"},
]


def _item(kind=0, count=1, group_ids=(1,), body=b"cmd", length=None, sequence=0):
    """One message of a ``d`` payload; ``length`` overrides its own."""
    ordered = (
        struct.pack(">qBH", sequence, kind, count)
        + struct.pack(">%dI" % len(group_ids), *group_ids) + body
    )
    if length is None:
        length = len(ordered)
    return struct.pack(">I", length) + ordered


def _deliver_payload(*items, count=None):
    """A ``d`` payload: a well-formed message (sequence 11: the one after
    ``STREAM[0]``'s), then ``items``."""
    items = (_item(sequence=11), *items)
    if count is None:
        count = len(items)
    return struct.pack(">BI", ord("d"), count) + b"".join(items)


_RESPONSE = struct.pack(">qq", 3, 4) + b"NN"  # uid, value None, error None

#: CRC-valid payloads no encoder produces, by what is wrong with them.
#: Every ``d`` case starts with a well-formed message, which must not be
#: released either: a frame is decoded whole or not at all.
MALFORMED = {
    "empty payload": b"",
    "unknown first byte": b"\x00abc",
    "d: short header": _deliver_payload()[:3],
    "d: message count past the payload": _deliver_payload(count=2),
    "d: item length past the payload": _deliver_payload(_item(length=99)),
    "d: item shorter than its head": _deliver_payload(_item(length=10)),
    "d: destination count past the payload": _deliver_payload(
        _item(count=4, group_ids=(1,), body=b"")
    ),
    "d: item shorter than its destination ids": _deliver_payload(
        _item(count=4, group_ids=(1,), body=b""), _item()
    ),
    "d: trailing bytes": _deliver_payload() + b"\x00",
    "d: unknown body kind": _deliver_payload(_item(kind=9)),
    "d: value body cut short": _deliver_payload(
        _item(kind=1, body=b"s\x00\x00")
    ),
    "d: value body past its item": _deliver_payload(
        _item(kind=1, body=b"s\x00\x00\x00\x09abc"), _item()
    ),
    "d: trailing bytes after a value body": _deliver_payload(
        _item(kind=1, body=b"N\x00")
    ),
    "r: short header": b"r\x00\x00",
    "r: response count past the payload": (
        struct.pack(">BI", ord("r"), 2) + _RESPONSE
    ),
    "r: uid cut short": struct.pack(">BI", ord("r"), 1) + _RESPONSE[:9],
    "r: trailing bytes": struct.pack(">BI", ord("r"), 1) + _RESPONSE + b"\x00",
    "control: unknown codec tag": b"\xc3\x01?",
}

#: 34-byte header, two group ids, a 4-byte name, then the args.
COMMAND_BODY = codec.encode_command(
    Command((1, 2), "read", {"key": 7}, destinations=frozenset({1, 2}))
)


def _read_to_eof(reader):
    messages = []
    while (burst := reader.read()) is not None:
        assert burst  # a read never returns an empty burst
        messages.extend(burst)
    return messages


class TestFrameReader:
    # The default buffer holds the whole stream; the small one is smaller
    # than a frame, so the grow / compact / shrink paths run too.
    @pytest.mark.parametrize("size", [wire.FrameReader.SIZE, 48])
    def test_every_cut_of_the_stream_yields_the_same_messages(
        self, monkeypatch, size
    ):
        frames = [encode(message) for message in STREAM]  # one frame each
        monkeypatch.setattr(wire.FrameReader, "SIZE", size)
        stream = b"".join(frames)
        ends = [sum(map(len, frames[: i + 1])) for i in range(len(frames))]
        for cut in range(len(stream) + 1):
            left, right = socket.socketpair()
            try:
                reader = wire.FrameReader(right)
                left.sendall(stream[:cut])
                # Exactly the frames that are complete ahead of the cut
                # can be read without the rest (more would block).
                complete = sum(1 for end in ends if end <= cut)
                messages = []
                while len(messages) < complete:
                    messages.extend(reader.read())
                assert messages == STREAM[:complete]
                left.sendall(stream[cut:])
                left.close()
                assert messages + _read_to_eof(reader) == STREAM
            finally:
                left.close()
                right.close()

    @pytest.mark.parametrize("where", ["magic", "crc", "payload"])
    @pytest.mark.parametrize("victim", range(len(STREAM)))
    def test_a_corrupt_frame_is_fatal_after_the_frames_ahead_of_it(
        self, victim, where
    ):
        frames = [bytearray(encode(message)) for message in STREAM]
        offset = {"magic": 0, "crc": framing.HEADER_SIZE - 1, "payload": -1}[where]
        frames[victim][offset] ^= 0xFF
        left, right = socket.socketpair()
        try:
            left.sendall(b"".join(frames))
            reader = wire.FrameReader(right)
            messages = []
            with pytest.raises(wire.WireError):
                while True:
                    messages.extend(reader.read())
            assert messages == STREAM[:victim]
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_payload_that_contradicts_its_layout_is_a_wire_error(self, case):
        # Never struct.error / IndexError: callers catch WireError only.
        with pytest.raises(wire.WireError):
            wire.decode_payload(MALFORMED[case])
        with pytest.raises(wire.WireError):
            wire.decode_payload(memoryview(bytearray(MALFORMED[case])))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_payload_is_fatal_after_the_frames_ahead_of_it(self, case):
        # The flipped bytes above never reach the decoder; these frames
        # carry a valid CRC and do.
        frames = [
            encode(STREAM[0]),
            framing.encode_frame(framing.WIRE_MAGIC, MALFORMED[case]),
            encode(STREAM[1]),
        ]
        left, right = socket.socketpair()
        try:
            left.sendall(b"".join(frames))
            reader = wire.FrameReader(right)
            messages = []
            with pytest.raises(wire.WireError):
                while True:
                    messages.extend(reader.read())
            assert messages == STREAM[:1]
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\xc3",
            codec.encode(("not", "a", "command")),
            COMMAND_BODY[:20],  # short header
            COMMAND_BODY[:36],  # destination count runs past the data
            COMMAND_BODY[:44],  # name length runs past the data
            COMMAND_BODY[:-3],  # args cut short
            COMMAND_BODY + b"\x00",  # trailing bytes
        ],
    )
    def test_a_malformed_command_body_is_a_checkpoint_error(self, data):
        with pytest.raises(CheckpointError):
            codec.decode_command(data)

    def test_eof_inside_a_frame_is_eof(self):
        stream = b"".join(encode(message) for message in STREAM)
        left, right = socket.socketpair()
        try:
            left.sendall(stream[:-1])
            left.close()
            reader = wire.FrameReader(right)
            assert _read_to_eof(reader) == STREAM[:-1]
            assert reader.read() is None
        finally:
            right.close()


def _unreadable_frame(how):
    """A frame the receiver cannot use: a flipped payload byte under the
    old CRC, or a valid CRC over a payload no encoder produces."""
    if how == "malformed":
        return framing.encode_frame(
            framing.WIRE_MAGIC, MALFORMED["d: unknown body kind"]
        )
    frame = bytearray(encode(STREAM[0]))
    frame[-1] ^= 0xFF
    return bytes(frame)


class TestFrameReaderTake:
    """The step a caller serving several sockets uses: it never waits for
    the rest of a frame, and reports a corrupt frame in the pass that
    met it."""

    def test_a_partial_frame_yields_nothing_and_does_not_block(self):
        frames = [encode(message) for message in STREAM[:2]]
        left, right = socket.socketpair()
        right.settimeout(0.5)  # a ``take`` that waited would read as EOF
        try:
            reader = wire.FrameReader(right)
            left.sendall(frames[0] + frames[1][:10])
            assert reader.take() == STREAM[:1]
            left.sendall(frames[1][10:-1])
            assert reader.take() == []
            left.sendall(frames[1][-1:])
            assert reader.take() == STREAM[1:2]
            assert reader.error is None
            left.close()
            assert reader.take() is None
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("how", ["bad crc", "malformed"])
    def test_a_corrupt_frame_is_reported_with_the_frames_ahead_of_it(self, how):
        left, right = socket.socketpair()
        try:
            reader = wire.FrameReader(right)
            left.sendall(encode(STREAM[0]) + _unreadable_frame(how))
            assert reader.take() == STREAM[:1]
            assert reader.error is not None
            with pytest.raises(wire.WireError):
                reader.read()
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# TCP coordinator transport
# ----------------------------------------------------------------------
HELLO = {"t": "hello", "watermark": -1}


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.002)
    assert condition()


def read_frames(reader, count):
    """The next ``count`` frames, decoded (a ``d`` burst is one)."""
    frames = []
    while len(frames) < count:
        read = reader.read()
        assert read is not None, f"stream ended after {len(frames)} frames"
        frames.extend(read)
    return frames


def read_messages(reader, count):
    """The next ``count`` messages: each ordered one of a ``d`` burst as
    ``{"t": "d", "s", "dst", "b"}``, control frames as they are."""
    messages = []
    while len(messages) < count:
        for frame in read_frames(reader, 1):
            if frame["t"] != "d":
                messages.append(frame)
                continue
            messages.extend(
                {"t": "d", "s": s, "dst": dst, "b": b}
                for s, dst, b in frame["msgs"]
            )
    return messages


# ----------------------------------------------------------------------
# The pump, against both sinks
# ----------------------------------------------------------------------
class SocketSink:
    """The TCP transport and ``count`` fake replica processes."""

    def __init__(self, stack, count, plane, fake_replicas):
        self.transport, self.readers = stack.enter_context(
            fake_replicas(count, plane)
        )

    def released(self, replica_id, count):
        """The next ``count`` ``(sequence, body)`` on the replica's socket
        — what its workers would be handed."""
        return [
            (message["s"], message["b"])
            for message in read_messages(self.readers[replica_id], count)
        ]


class QueueSink:
    """The in-process transport and one worker queue per replica; a plane
    without faults still selects the pump."""

    def __init__(self, stack, count, plane, _fake_replicas):
        self.transport = InprocTransport(1, plane or FaultPlane())
        stack.callback(self.transport.close)
        self.queues = [
            self.transport.on_replica_registered(replica_id, None)[1]
            for replica_id in range(count)
        ]

    def released(self, replica_id, count):
        wait_until(lambda: self.queues[replica_id].qsize() >= count)
        return [
            (sequence, body)
            for sequence, _destinations, body
            in self.queues[replica_id].get_batch(count)
        ]


@pytest.fixture(params=[SocketSink, QueueSink], ids=["socket", "queues"])
def sink(request, fake_replicas):
    """``sink(count, plane=None)`` builds one; torn down with the test."""
    with contextlib.ExitStack() as stack:
        yield lambda count, plane=None: request.param(
            stack, count, plane, fake_replicas
        )


class Held:
    """What the pump did after a :func:`held_pump` block let it go."""

    def __init__(self):
        self.wakeups = 0  # passes scheduled on the loop while it was held
        self.writes = []  # (link, number of items) per ``write``, in order


@contextlib.contextmanager
def held_pump(transport):
    """Park the I/O loop inside the pump's ``write`` of a fake link for
    the block; on exit it is released and has written all that was
    posted meanwhile."""
    pump = transport.pump
    plug, held = Link("plug", None), Held()
    entered, release, flushed = (threading.Event() for _ in range(3))
    write, wake = pump.write, pump._wake

    def holding_write(link, items):
        if link is not plug:
            held.writes.append((link, len(items)))
            write(link, items)
        elif not entered.is_set():
            entered.set()
            release.wait(10.0)
        else:
            flushed.set()

    def counting_wake():
        held.wakeups += 1
        wake()

    pump.write = holding_write
    pump.post([(plug, None, None)])
    assert entered.wait(5.0)
    pump._wake = counting_wake
    try:
        yield held
    finally:
        del pump._wake
        release.set()
        pump.post([(plug, None, None)])  # behind all that was posted
        assert flushed.wait(5.0)
        pump.write = write


class TestBurstPath:
    COUNT = 40
    BURST = [(sequence, b"cmd%d" % sequence) for sequence in range(COUNT)]

    def send_burst(self, sink):
        for sequence, body in self.BURST:
            sink.transport.send((sequence, ALL_GROUPS, body))

    def test_a_burst_is_one_wakeup_and_one_write_per_link(self, sink):
        count = self.COUNT
        sink = sink(2)
        transport = sink.transport
        with held_pump(transport) as held:
            self.send_burst(sink)
            assert transport.pending() == 2 * count
            assert transport.pending(1) == count
            assert held.writes == []
        assert held.wakeups == 1
        assert [items for _link, items in held.writes] == [count, count]
        for replica_id in (0, 1):
            assert sink.released(replica_id, count) == self.BURST
        wait_until(lambda: transport.pending() == 0)

    def test_a_lone_frame_leaves_at_once(self, sink):
        sink = sink(1)
        sink.transport.send((0, ALL_GROUPS, b"only"))
        assert sink.released(0, 1) == [(0, b"only")]
        wait_until(lambda: sink.transport.pending() == 0)

    def test_a_generation_bump_before_the_pass_voids_the_items(self, sink):
        count = self.COUNT
        sink = sink(2)
        transport = sink.transport
        with held_pump(transport) as held:
            self.send_burst(sink)
            transport.on_replica_unregistered(1)
            # Void items are dropped already, as far as a drain check is
            # concerned ...
            assert transport.pending(1) == 0
            assert transport.pending() == count
        # ... and nothing was written toward the voided registration.
        assert [items for _link, items in held.writes] == [count]
        assert sink.released(0, count) == self.BURST
        wait_until(lambda: transport.pending() == 0)

    def test_faults_still_yield_each_message_once_in_order(self, sink):
        count = self.COUNT
        plane = FaultPlane(seed=5, retransmit_backoff=0.002)
        plane.set_link(drop=0.3, delay=0.5, delay_range=(0.0, 0.01))
        plane.isolate("replica1")
        sink = sink(2, plane)
        transport = sink.transport
        with held_pump(transport):
            self.send_burst(sink)
            assert transport.pending(0) == transport.pending(1) == count
        plans = [e for e in plane.schedule() if e[0] == "plan"]
        # One plan per replica per message, in ascending replica order.
        assert [e[2] for e in plans] == ["replica0", "replica1"] * count
        assert any(e[3] > 0 for e in plans)  # some were late
        assert sink.released(0, count) == self.BURST
        # The partitioned link's items were held, not lost and not
        # counted out.
        wait_until(lambda: plane.stats["blocked_retries"] > 0)
        assert transport.pending(1) == count
        plane.heal()
        assert sink.released(1, count) == self.BURST
        wait_until(lambda: transport.pending() == 0)
        if isinstance(sink, SocketSink):  # every item became a frame
            assert transport.frames_written == 2 * count

    def test_a_late_item_holds_back_the_ones_posted_behind_it(
        self, sink, record_writes
    ):
        plane = FaultPlane(seed=1)
        plane.set_link(dst="replica0", delay=1.0, delay_range=(0.05, 0.05))
        sink = sink(1, plane)
        transport = sink.transport
        writes = record_writes(transport)
        with held_pump(transport):  # one pass files all three
            transport.send((0, ALL_GROUPS, b"late"))
            plane.set_link(dst="replica0")  # the rest: no faults
            for sequence in (1, 2):
                transport.send((sequence, ALL_GROUPS, b"on time"))
        # The on-time items waited for the late one: one write of all three.
        wait_until(lambda: writes)
        assert writes == [("replica0", [0, 1, 2])]
        assert sink.released(0, 3) == [
            (0, b"late"), (1, b"on time"), (2, b"on time")
        ]
        wait_until(lambda: transport.pending() == 0)


class TestSocketBurstPath:
    """What only frames on a socket have: control frames among the ``d``
    frames, the replay of a retained suffix, the write counters."""

    COUNT = TestBurstPath.COUNT

    def test_the_counters_read_one_write_per_link_per_burst(
        self, fake_replicas
    ):
        count = self.COUNT
        with fake_replicas(2) as (transport, readers):
            with held_pump(transport):
                for sequence in range(count):
                    transport.send((sequence, ALL_GROUPS, b"c"))
                assert transport.frames_written == 0
            wait_until(lambda: transport.pending() == 0)
            assert transport.writes == 2
            assert transport.frames_written == 2 * count
            for reader in readers:
                # The write was one frame: a burst of every message.
                (frame,) = read_frames(reader, 1)
                assert [m[0] for m in frame["msgs"]] == list(range(count))
            # A lone frame is a write of its own per link, at once.
            transport.send((count, ALL_GROUPS, b"only"))
            for reader in readers:
                (frame,) = read_messages(reader, 1)
                assert (frame["s"], frame["b"]) == (count, b"only")
            wait_until(lambda: transport.pending() == 0)
            assert (transport.writes, transport.frames_written) == (
                4, 2 * count + 2
            )

    def test_replay_is_one_wakeup(self, fake_replicas):
        count = self.COUNT
        replay = [(sequence, ALL_GROUPS, b"r%d" % sequence) for sequence in range(count)]
        with fake_replicas(1, register=False) as (transport, readers):
            with held_pump(transport) as held:
                transport.on_replica_registered(0, replay)
                assert transport.pending(0) == count
            assert held.wakeups == 1
            assert [items for _link, items in held.writes] == [count]
            assert (transport.writes, transport.frames_written) == (1, count)
            frames = read_messages(readers[0], count)
            assert [frame["s"] for frame in frames] == list(range(count))
            assert [frame["b"] for frame in frames] == [e[2] for e in replay]

    def test_a_control_frame_keeps_its_place_between_deliveries(
        self, fake_replicas
    ):
        with fake_replicas(1) as (transport, readers):
            with held_pump(transport):
                transport.send((0, ALL_GROUPS, b"before"))
                assert transport.control_send(0, {"t": "stats?", "req": 7})
                transport.send((1, ALL_GROUPS, b"after"))
            assert (transport.writes, transport.frames_written) == (1, 3)
            # The control frame cut the run into two bursts around it.
            frames = read_frames(readers[0], 3)
            assert [frame["t"] for frame in frames] == ["d", "stats?", "d"]
            assert [frames[0]["msgs"], frames[2]["msgs"]] == [
                [(0, "ALL", b"before")], [(1, "ALL", b"after")]
            ]

    def test_a_voided_registration_keeps_its_connection(self, fake_replicas):
        with fake_replicas(2) as (transport, readers):
            with held_pump(transport):
                transport.send((0, ALL_GROUPS, b"cmd"))
                transport.on_replica_unregistered(1)
            assert (transport.writes, transport.frames_written) == (1, 1)
            assert transport.control_send(1, {"t": "bye"})
            assert read_frames(readers[1], 1) == [{"t": "bye"}]

    def test_a_peer_that_stops_reading_costs_the_others_a_bounded_delay(
        self, fake_replicas, healthy_backend, monkeypatch
    ):
        monkeypatch.setattr(tcp, "SEND_TIMEOUT", 0.3)
        count, body = 12, b"x" * (1 << 20)  # more than the kernel buffers
        base_url, stop = run_app_in_thread(create_app(kv_backend=healthy_backend))
        try:
            with fake_replicas(3) as (transport, readers):
                stalled, trickling = transport._links[1], transport._links[2]
                # Small kernel buffers on the trickling link, so that each
                # of its reads lets the coordinator write some more.
                trickling.sink.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
                readers[2]._sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16
                )
                sent = time.monotonic()
                for sequence in range(count):
                    transport.send((sequence, ALL_GROUPS, body))
                # Replica 2 reads, but a trickle: 64 KiB every 50 ms, far
                # too little to take the burst within ``SEND_TIMEOUT``.
                trickle = threading.Thread(
                    target=_trickle, args=(readers[2]._sock,), daemon=True
                )
                trickle.start()
                # Neither replica reads yet, and the loop that writes to
                # them serves HTTP all the same.
                asked = time.monotonic()
                assert http_get(base_url, "/healthz") == 200
                assert time.monotonic() - asked < 1.0
                # Replica 1 never reads.  Replica 0 still gets the burst ...
                frames = read_messages(readers[0], count)
                assert [frame["s"] for frame in frames] == list(range(count))
                # ... and the stalled link and the trickling one are
                # dropped, like any broken one, once a byte waited
                # ``SEND_TIMEOUT`` in their buffer; what they still
                # buffered is released with their socket.
                wait_until(lambda: not transport.connected(1))
                wait_until(lambda: not transport.connected(2))
                assert time.monotonic() - sent < tcp.SEND_TIMEOUT + 2.0
                for dropped in (stalled, trickling):
                    wait_until(lambda: dropped.sink.fileno() == -1)
                    assert dropped.buffer is None and dropped.buffered == 0
                trickle.join(timeout=5.0)
                assert transport.connected(0)
                assert not transport.control_send(1, {"t": "stats?", "req": 0})
                wait_until(lambda: transport.pending() == 0)
                transport.send((count, ALL_GROUPS, b"next"))
                assert read_messages(readers[0], 1)[0]["b"] == b"next"
        finally:
            stop()

    def test_items_a_link_buffers_are_pending(self, fake_replicas):
        count, body = 12, b"x" * (1 << 20)  # more than the kernel buffers
        with fake_replicas(1) as (transport, readers):
            link = transport._links[0]
            for sequence in range(count):
                transport.send((sequence, ALL_GROUPS, body))
            # Out of the pump, not yet taken by the socket: still pending.
            wait_until(lambda: link.in_flight == 0)
            assert 0 < link.buffered <= count
            assert transport.pending(0) == link.buffered
            assert not LocalAtomicMulticast(transport).is_drained(0)
            read_messages(readers[0], count)
            wait_until(lambda: transport.pending(0) == 0)
            assert link.buffer is None

    def test_a_failed_write_counts_nothing(self):
        transport = TcpCoordinatorTransport()
        transport.start()
        try:
            peer = tcp._Peer(_BrokenSink())
            with held_pump(transport):
                transport.pump.post([
                    (peer, wire.ordered_part(0, ALL_GROUPS, b"cmd"), 0.0),
                    (peer, tcp._Control(
                        wire.encode_message({"t": "stats?", "req": 1})
                    ), None),
                ])
            # The link was dropped like any broken one ...
            assert peer.sink.shut and peer.in_flight == 0
            # ... and nothing reached a socket.
            assert (transport.writes, transport.frames_written) == (0, 0)
        finally:
            transport.close()


def _trickle(sock):
    """Take 64 KiB every 50 ms until the socket ends."""
    try:
        while sock.recv(1 << 16):
            time.sleep(0.05)
    except OSError:
        pass


def http_get(base_url, path):
    """The status of ``GET path``, on a connection of its own."""
    host, _, port = base_url.rpartition("//")[2].partition(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=5.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


class _BrokenSink:
    """A socket whose every write fails, as after a reset."""

    def __init__(self):
        self.shut = False

    def send(self, data):
        raise OSError("connection reset by peer")

    def shutdown(self, how):
        self.shut = True


class TestBurstPathFrames:
    """What the burst layout adds: a run too long for the reader's buffer
    is cut into frames that fit it, and a malformed burst releases
    nothing."""

    def test_a_replay_longer_than_the_cap_is_split_into_several_frames(
        self, fake_replicas
    ):
        count, body = 40, b"r" * 4000  # about 160 KiB of ordered parts
        replay = [
            (sequence, ALL_GROUPS, body + b"%d" % sequence)
            for sequence in range(count)
        ]
        with fake_replicas(1, register=False) as (transport, readers):
            with held_pump(transport) as held:
                transport.on_replica_registered(0, replay)
            assert [items for _link, items in held.writes] == [count]
            assert (transport.writes, transport.frames_written) == (1, count)
            frames = []
            while sum(len(frame["msgs"]) for frame in frames) < count:
                frames += read_frames(readers[0], 1)
        assert len(frames) >= 3
        messages = [message for frame in frames for message in frame["msgs"]]
        assert messages == replay

    def test_every_frame_fits_the_cap_but_a_larger_message_travels_alone(self):
        small = wire.ordered_part(0, ALL_GROUPS, b"s" * 1000)
        large = wire.ordered_part(1, ALL_GROUPS, b"l" * (2 * wire.FrameReader.SIZE))
        run = [small] * 100 + [large] + [small] * 3
        chunks = wire.deliver_frames(run)
        payloads = chunks[1::2]
        counts = [struct.unpack_from(">BI", p)[1] for p in payloads]
        assert sum(counts) == len(run) and counts[-2:] == [1, 3]
        assert all(len(p) <= wire.FrameReader.SIZE for p in payloads[:-2])
        assert all(len(p) > wire.FrameReader.SIZE * 0.9 for p in payloads[:-3])
        decoded = [
            message
            for payload in payloads
            for message in wire.decode_payload(payload)["msgs"]
        ]
        assert [message[0] for message in decoded] == [0] * 100 + [1] + [0] * 3

    @pytest.mark.parametrize(
        "case", sorted(case for case in MALFORMED if case.startswith("d:"))
    )
    def test_a_replica_releases_nothing_from_a_malformed_burst(self, case):
        left, right = socket.socketpair()
        try:
            replica = ReplicaProcess(right, 0, 2, None, None)
            left.sendall(
                encode(STREAM[0])
                + framing.encode_frame(framing.WIRE_MAGIC, MALFORMED[case])
                + encode(STREAM[1])
            )
            left.shutdown(socket.SHUT_WR)  # a serve that read on returns too
            replica.serve([])  # returns at the malformed frame
            # STREAM[0] only: not the well-formed message that leads the
            # malformed burst, not the frame behind it.
            assert [queue.qsize() for queue in replica.inbox.queues.values()] == [1, 0]
        finally:
            left.close()
            right.close()


class TestReceivingEnd:
    """The one receiving end (``ReplicaInbox``), fed through either
    runtime under drops, delays and a partition: the pump hands the link
    each message once, in order, and every worker queue holds exactly its
    ``delivering_threads`` share of them, once, in order."""

    COUNT = 60
    MPL = 3
    MULTI = (1, 3)

    @classmethod
    def delivers(cls, index, destinations):
        """``t_i`` delivers ``g_i``, and ``g_all``, which carries every
        multi-group message."""
        return destinations in ((index,), cls.MULTI, ALL_GROUPS)

    def sent(self):
        """Single-group commands, a multi-group command and an ALL cut."""
        kinds = [(1,), (2,), (3,), self.MULTI, ALL_GROUPS]
        return [
            (
                sequence,
                kinds[sequence % 5],
                wire.make_cut(sequence, None, False)
                if kinds[sequence % 5] == ALL_GROUPS else b"c%d" % sequence,
            )
            for sequence in range(self.COUNT)
        ]

    @pytest.fixture(autouse=True)
    def _helpers(self, fake_replicas, record_writes):
        self.fake_replicas, self.record_writes = fake_replicas, record_writes

    @staticmethod
    def faulty_plane():
        plane = FaultPlane(seed=11, retransmit_backoff=0.002)
        plane.set_link(drop=0.3, delay=0.5, delay_range=(0.0, 0.01))
        return plane

    def send(self, transport, plane, sent):
        """Send ``sent`` with the replica partitioned for its middle third
        and some retransmit backoffs after it; returns what the pump wrote
        (:func:`record_writes`)."""
        writes = self.record_writes(transport)
        third = len(sent) // 3
        for position, item in enumerate(sent):
            if position == third:
                plane.isolate("replica0")
            elif position == 2 * third:
                time.sleep(10 * plane.retransmit_backoff)
                plane.heal()
            transport.send(item)
        return writes

    def through_a_replica_process(self, sent):
        """The TCP transport's frames, filed by a replica process's
        ``d``-frame path one read at a time."""
        plane = self.faulty_plane()
        replica = ReplicaProcess(None, 0, self.MPL, None, None)
        with self.fake_replicas(1, plane) as (transport, readers):
            writes = self.send(transport, plane, sent)
            arrived = 0
            while arrived < len(sent):
                for frame in read_frames(readers[0], 1):
                    replica.inbox.accept(frame["msgs"])
                    arrived += len(frame["msgs"])
                replica.inbox.flush()
            wait_until(lambda: transport.pending() == 0)
        return writes, replica.inbox

    def through_the_inproc_transport(self, sent):
        """The threaded runtime's pump, writing into the inbox it built."""
        plane = self.faulty_plane()
        transport = InprocTransport(self.MPL, plane)
        try:
            queues = transport.on_replica_registered(0, None)
            writes = self.send(transport, plane, sent)
            queued = sum(
                self.delivers(index, item[1])
                for item in sent for index in range(1, self.MPL + 1)
            )
            # Every item handed over, nothing held: all is queued.
            wait_until(lambda: transport.pending() == queued)
            (link,) = transport._links.values()
            wait_until(lambda: link.in_flight == 0)
            assert link.sink.queues is queues
        finally:
            transport.close()
        return writes, link.sink

    @pytest.mark.parametrize(
        "runtime", ["through_a_replica_process", "through_the_inproc_transport"]
    )
    def test_each_worker_gets_its_share_once_in_order(self, runtime):
        sent = self.sent()
        writes, inbox = getattr(self, runtime)(sent)
        assert writes.to("replica0") == list(range(len(sent)))
        for index, queue in inbox.queues.items():
            expected = [item for item in sent if self.delivers(index, item[1])]
            assert queue.get_batch(len(sent)) == expected
            assert queue.empty()

    def test_the_fan_out_is_written_once(self):
        runtime = os.path.join(list(repro.__path__)[0], "runtime")
        sites = collections.Counter()
        for directory, _dirs, files in os.walk(runtime):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name)) as source:
                        text = source.read()
                    needle = ".delivering_threads"
                    if needle in text:
                        sites[needle, name] += text.count(needle)
        assert sites == {(".delivering_threads", "inproc.py"): 1}


class TestDeliveryQueue:
    """The worker queue every delivered command ends in, on both
    runtimes: an unbounded FIFO with one consumer."""

    def test_fifo_across_put_and_put_many(self):
        delivery_queue = DeliveryQueue()
        delivery_queue.put(0)
        delivery_queue.put_many([1, 2, 3])
        delivery_queue.put(4)
        delivery_queue.put_many([])
        delivery_queue.put_many(iter([5, 6]))
        assert delivery_queue.get_batch(100) == list(range(7))

    def test_get_batch_takes_at_most_n_and_leaves_the_rest_in_order(self):
        delivery_queue = DeliveryQueue()
        delivery_queue.put_many(range(10))
        assert delivery_queue.get_batch(4) == [0, 1, 2, 3]
        assert delivery_queue.get_batch(1) == [4]
        assert delivery_queue.get_nowait() == 5
        assert delivery_queue.get_batch(4) == [6, 7, 8, 9]

    def test_a_blocked_get_batch_returns_when_another_thread_puts(self):
        delivery_queue = DeliveryQueue()
        taken = []
        worker = threading.Thread(
            target=lambda: taken.append(delivery_queue.get_batch(8))
        )
        worker.start()
        time.sleep(0.05)
        assert worker.is_alive() and taken == []  # blocked on an empty queue
        delivery_queue.put_many(["a", "b"])
        worker.join(5.0)
        assert not worker.is_alive()
        # The first put wakes the worker; the rest of the run is either in
        # its batch or still queued, in order.
        rest = [] if delivery_queue.empty() else delivery_queue.get_batch(8)
        assert taken[0] + rest == ["a", "b"]

    def test_none_passes_through_as_the_stop_pill(self):
        delivery_queue = DeliveryQueue()
        delivery_queue.put_many([1, None])
        delivery_queue.put(None)
        assert delivery_queue.get_batch(8) == [1, None, None]
        assert delivery_queue.empty()

    def test_qsize_and_empty_are_exact_after_a_partial_drain(self):
        delivery_queue = DeliveryQueue()
        assert delivery_queue.empty() and delivery_queue.qsize() == 0
        with pytest.raises(queue.Empty):
            delivery_queue.get_nowait()
        delivery_queue.put_many(range(5))
        delivery_queue.put(5)
        assert delivery_queue.qsize() == 6 and not delivery_queue.empty()
        delivery_queue.get_batch(4)
        assert delivery_queue.qsize() == 2 and not delivery_queue.empty()
        delivery_queue.get_nowait()
        assert delivery_queue.qsize() == 1
        delivery_queue.get_batch(4)
        assert delivery_queue.qsize() == 0 and delivery_queue.empty()

    def test_concurrent_producers_lose_and_reorder_nothing(self):
        # More producers than cores, switching often: the one consumer's
        # ``qsize`` / ``get_nowait`` count stays exact while puts race it.
        delivery_queue = DeliveryQueue()
        producers, runs, run_length = 4, 200, 5

        def produce(producer):
            try:
                for run in range(runs):
                    delivery_queue.put_many(
                        (producer, run * run_length + offset)
                        for offset in range(run_length)
                    )
            finally:
                delivery_queue.put(None)  # this producer is done

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=produce, args=(producer,))
                for producer in range(producers)
            ]
            for thread in threads:
                thread.start()
            taken = []
            while taken.count(None) < producers:
                taken += delivery_queue.get_batch(7)
            for thread in threads:
                thread.join(5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert delivery_queue.empty()
        taken = [item for item in taken if item is not None]
        assert len(taken) == producers * runs * run_length
        for producer in range(producers):
            assert [n for p, n in taken if p == producer] == list(
                range(runs * run_length)
            )

    def test_the_hand_off_enters_no_python_level_lock(self):
        # ``put``, ``put_many`` and a ``get_batch`` with items queued lock
        # and wake in C: no ``threading`` function (``Condition`` and its
        # ``__enter__`` / ``notify`` / ``wait_for``) runs on either side.
        delivery_queue = DeliveryQueue()
        entered = []

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                entered.append((os.path.basename(code.co_filename), code.co_name))

        sys.setprofile(profile)
        try:
            delivery_queue.put(1)
            delivery_queue.put_many([2, 3])
            batch = delivery_queue.get_batch(8)
        finally:
            sys.setprofile(None)
        assert batch == [1, 2, 3]
        assert entered  # the profile saw the Python frames there are
        assert [call for call in entered if call[0] == "threading.py"] == []


class TestTransportThreads:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_one_io_thread_whatever_the_replica_count(
        self, fake_replicas, replicas, transport_threads
    ):
        with fake_replicas(replicas) as (transport, _readers):
            assert transport_threads() == ["psmr-io"]
            transport.close()
            # The loop outlives the transport; its sockets do not.
            assert transport_threads() == ["psmr-io"]
            assert transport._peers == set()
            assert transport._listener.fileno() == -1
        # ``fake_replicas`` closed it a second time.
        assert transport_threads() == ["psmr-io"]

    def test_a_transport_never_started_owns_no_thread(self):
        # In a process of its own: here the loop already runs.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(list(repro.__path__)[0]))
        script = (
            "import threading\n"
            "from repro.runtime.transport import TcpCoordinatorTransport\n"
            "transport = TcpCoordinatorTransport()\n"
            "transport.close()\n"
            "print(sorted(t.name for t in threading.enumerate()\n"
            "             if t is not threading.main_thread()),\n"
            "      transport._listener, transport.pump, transport._peers)\n"
        )
        ran = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert ran.stdout.strip() == "[] None None set()"

    def test_the_queue_transport_uses_the_loop_only_under_a_plane(
        self, transport_threads
    ):
        inline = InprocTransport(2)
        assert inline.pump is None
        inline.close()
        transport = InprocTransport(2, FaultPlane())
        transport.on_replica_registered(0, None)
        writers = []
        write = transport.pump.write

        def naming_write(link, items):
            writers.append(threading.current_thread().name)
            write(link, items)

        transport.pump.write = naming_write
        transport.send((0, ALL_GROUPS, b"cmd"))
        wait_until(lambda: writers)
        assert writers == ["psmr-io"]
        transport.close()
        transport.close()
        assert transport_threads() == ["psmr-io"]

    def test_a_threaded_cluster_without_a_plane_never_starts_the_loop(self):
        # The direct path puts on worker queues inline: no loop, no socket.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(list(repro.__path__)[0]))
        script = (
            "import threading\n"
            "from repro.runtime import ThreadedPSMRCluster\n"
            "from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer\n"
            "cluster = ThreadedPSMRCluster(KVSTORE_SPEC, KeyValueStoreServer)\n"
            "with cluster:\n"
            "    cluster.client().invoke('insert', key=1, value=b'x')\n"
            "    print(sorted({t.name for t in threading.enumerate()\n"
            "                  if t.name.startswith(('psmr-io', 'psmr-pump'))}))\n"
        )
        ran = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert ran.stdout.strip() == "[]"


class TestSerialiseOnce:
    def test_a_keyed_command_is_encoded_once_for_all_replicas(
        self, fake_replicas, monkeypatch
    ):
        replicas, commands = 3, 4
        group = frozenset({2})
        bodies = [
            codec.encode_command(
                Command((1, n), "update", {"key": n, "value": b"v"},
                        destinations=group)
            )
            for n in range(commands)
        ]
        calls = collections.Counter()

        def encode_command(command):
            calls["encode_command"] += 1
            return bodies[command.uid[1]]

        def general_codec(*_args):
            calls["general codec"] += 1
            raise AssertionError("a d frame went through the general codec")

        with fake_replicas(replicas, register=False) as (transport, readers):
            multicast = LocalAtomicMulticast(transport)
            for replica_id in range(replicas):
                multicast.register_replica(replica_id)
            monkeypatch.setattr(codec, "encode_command", encode_command)
            for name in ("encode", "encode_value"):
                monkeypatch.setattr(codec, name, general_codec)
            for n in range(commands):
                multicast.multicast(
                    group, Command((1, n), "update", destinations=group)
                )
            assert calls == {"encode_command": commands}
            for reader in readers:
                frames = read_messages(reader, commands)
                assert [frame["s"] for frame in frames] == list(range(commands))
                assert [frame["b"] for frame in frames] == bodies
                assert {frame["dst"] for frame in frames} == {(2,)}
            wait_until(lambda: transport.pending() == 0)
            assert transport.frames_written == replicas * commands

    def test_a_batch_answer_takes_no_general_codec_call(self, monkeypatch):
        calls = collections.Counter()
        for name in ("encode_value", "decode_value"):
            def counted(*args, _name=name, _general=getattr(codec, name)):
                calls[_name] += 1
                return _general(*args)

            monkeypatch.setattr(codec, name, counted)

        def through_the_wire(answer):
            resps = (((1, 7), answer, None), ((1, 8), b"v", "err=1"))
            frame = wire.encode_message({"t": "r", "resps": resps})
            payload = memoryview(frame)[framing.HEADER_SIZE:]
            assert wire.decode_payload(payload) == {"t": "r", "resps": resps}

        through_the_wire([
            (b"v%d" % n if n % 3 else None, "err=1" if n % 5 == 4 else None)
            for n in range(16)
        ])
        assert calls == {}
        # The counters see a shape the fast path leaves to the codec.
        through_the_wire([(b"v", None), (7, None)])
        assert calls["encode_value"] and calls["decode_value"]


class _NamesItsWorker:
    """A toy service: answers with the executing thread's name, except
    ``lock``, whose answer no serialiser can carry, and ``hold``, which
    sets ``held`` and answers once ``released`` is set."""

    def __init__(self, held, released):
        self.held, self.released = held, released

    def apply(self, command):
        if command.name == "lock":
            return Response(uid=command.uid, value=threading.Lock())
        if command.name == "hold":
            self.held.set()
            assert self.released.wait(5.0)
            return Response(uid=command.uid)
        return Response(uid=command.uid, value=threading.current_thread().name)


class TestUnencodableResponse:
    """One answer the codec cannot carry costs that answer only: not the
    ``r`` frame it shares with others, nor the thread that sends it —
    the receive loop, which runs an idle worker's run itself, or the
    worker, which a busy one's run is queued for."""

    RECEIVER = "replica0-receive-loop"

    @pytest.mark.parametrize("worker", ["idle", "busy"])
    def test_it_becomes_an_error_response_and_the_worker_lives(self, worker):
        left, right = socket.socketpair()
        left.settimeout(5.0)  # a dead thread reads as EOF here, not a hang
        held, released = threading.Event(), threading.Event()
        replica = ReplicaProcess(
            right, 0, 2, lambda: _NamesItsWorker(held, released), None
        )
        server = threading.Thread(
            target=replica.serve, args=([],), name=self.RECEIVER, daemon=True
        )
        server.start()
        reader = wire.FrameReader(left)

        def deliver(first, *names, dst=(1,)):
            """One write, so one run."""
            left.sendall(b"".join(
                wire.encode_message({
                    "t": "d", "s": n, "dst": dst,
                    "b": codec.encode_command(
                        Command((7, n), name, {}, destinations=frozenset(dst))
                    ),
                })
                for n, name in enumerate(names, first)
            ))

        try:
            for message in (
                {"t": "welcome", "barrier_timeout": 5.0, "full_every": None},
                {"t": "start"},
            ):
                wire.send_message(left, message)
            if worker == "busy":
                # A command to both groups holds t1 (running it, or parked
                # at its barrier) until released: the run is queued.
                deliver(10, "hold", dst=(1, 2))
                assert held.wait(5.0)
                deliver(0, "name", "lock", "name")
                queue_1 = replica.engine.queues[1]
                wait_until(lambda: queue_1.qsize() == 3)
                released.set()
                hold, flush = read_frames(reader, 2)
                assert hold == {"t": "r", "resps": (((7, 10), None, None),)}
                answerer = "psmr-replica0-t1"
            else:
                deliver(0, "name", "lock", "name")
                (flush,) = reader.read()
                answerer = self.RECEIVER
            # All three answers, in one frame.
            (first, thread, _), (second, value, error), (third, same, _) = (
                flush["resps"]
            )
            assert (first, second, third) == ((7, 0), (7, 1), (7, 2))
            assert thread == same == answerer
            assert value is None and "lock" in error
            # Once t1 has finished its run, it is idle: the group's next
            # command runs on the receive loop, which is alive.
            engine = replica.engine
            wait_until(lambda: engine.handed[1] == engine.finished[1])
            deliver(3, "name")
            assert reader.read() == [
                {"t": "r", "resps": (((7, 3), self.RECEIVER, None),)}
            ]
            assert engine.stats()["inline"] == (1 if worker == "busy" else 2)
        finally:
            released.set()
            wire.send_message(left, {"t": "bye"})
            server.join(5.0)
            replica.engine.stop()
            left.close()
            right.close()
        assert not server.is_alive()
        assert not any(thread.is_alive() for thread in replica.engine.threads)


class TestUnreadableFrames:
    """A malformed payload ends a connection exactly as a bad CRC does."""

    @pytest.mark.parametrize("how", ["bad crc", "malformed"])
    def test_the_replica_stops_serving_after_the_frames_ahead(self, how):
        left, right = socket.socketpair()
        try:
            replica = ReplicaProcess(right, 0, 2, None, None)
            left.sendall(encode(STREAM[0]) + _unreadable_frame(how))
            replica.serve([])  # returns: no exception, no further read
            assert replica.inbox.queues[1].qsize() == 1  # STREAM[0] was queued
            assert replica.inbox.queues[2].qsize() == 0
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("how", ["bad crc", "malformed"])
    def test_the_coordinator_drops_the_link(self, how):
        received = []
        transport = TcpCoordinatorTransport(
            on_message=lambda replica_id, message: received.append(message)
        )
        host, port = transport.start()
        client = socket.create_connection((host, port), timeout=5.0)
        try:
            transport.discard_hello(0)
            wire.send_message(
                client,
                {"t": "hello", "replica": 0, "watermark": -1, "pid": 0},
            )
            transport.take_hello(0, timeout=5.0)
            good = {"t": "r", "resps": (((1, 2), b"v", None),)}
            client.sendall(wire.encode_message(good) + _unreadable_frame(how))
            assert wire.FrameReader(client).read() is None  # closed on us
            assert received == [good]
            assert not transport.connected(0)
        finally:
            client.close()
            transport.close()


class _Router(ResponseRouter):
    """A bare response router: just the state it requires."""

    def __init__(self):
        self._lock = threading.Lock()
        self._waiters = {}
        self._responses = {}


class TestAnsweredOnceOnTheWire:
    def test_a_malformed_value_in_a_duplicate_copy_costs_the_whole_frame(
        self, fake_replicas
    ):
        """Only the first answer per uid becomes a Response, but every
        copy is still decoded: the second replica's ``r`` frame, whose
        copy of an answered uid carries a value no encoder writes, is a
        WireError — its other, fresh answer is not delivered either."""
        router = _Router()
        with fake_replicas(
            2, on_message=lambda replica_id, message: router._respond_many(
                message["resps"], replica_id
            )
        ) as (transport, readers):
            for uid in ((1, 1), (1, 2)):
                router._register_waiter(uid)
            first = {"t": "r", "resps": (((1, 1), b"v", None),)}
            wire.send_message(readers[0]._sock, first)
            wait_until(lambda: (1, 1) in router._responses)
            duplicate = bytearray(wire.encode_message(
                {"t": "r", "resps": (((1, 1), b"v", None), ((1, 2), b"w", None))}
            )[framing.HEADER_SIZE:])
            duplicate[struct.calcsize(">BIqq")] = ord("?")  # the copy's value tag
            readers[1]._sock.sendall(
                framing.encode_frame(framing.WIRE_MAGIC, bytes(duplicate))
            )
            wait_until(lambda: not transport.connected(1))
            assert transport.connected(0)
        assert router._responses == {(1, 1): Response((1, 1), b"v", None, 0)}
        assert (1, 2) in router._waiters


class TestTcpCoordinatorTransport:
    def test_handshake_control_frames_and_dispatch(self):
        received = []
        event = threading.Event()

        def on_message(replica_id, message):
            received.append((replica_id, message))
            event.set()

        transport = TcpCoordinatorTransport(on_message=on_message)
        host, port = transport.start()
        client = None
        try:
            assert not transport.connected(0)
            transport.discard_hello(0)  # arm the waiter, as respawn does
            client = socket.create_connection((host, port), timeout=5.0)
            hello = {"t": "hello", "replica": 0, "watermark": -1, "pid": 4242}
            assert wire.send_message(client, hello)
            assert transport.take_hello(0, timeout=5.0) == hello
            assert transport.connected(0)
            # Coordinator -> replica control frame.
            assert transport.control_send(0, {"t": "welcome", "mpl": 2})
            assert wire.FrameReader(client).read() == [{"t": "welcome", "mpl": 2}]
            # Replica -> coordinator frames reach the dispatch callback.
            assert wire.send_message(client, {"t": "stats", "req": 0})
            assert event.wait(5.0)
            assert received == [(0, {"t": "stats", "req": 0})]
            # Control sends to unknown replicas report failure.
            assert not transport.control_send(9, {"t": "bye"})
        finally:
            if client is not None:
                client.close()
            transport.close()

    def test_take_hello_times_out_as_recovery_error(self):
        transport = TcpCoordinatorTransport()
        transport.start()
        try:
            transport.discard_hello(0)
            with pytest.raises(RecoveryError):
                transport.take_hello(0, timeout=0.1)
        finally:
            transport.close()

    def test_reconnect_replaces_the_link(self):
        transport = TcpCoordinatorTransport()
        host, port = transport.start()
        try:
            transport.discard_hello(1)
            first = socket.create_connection((host, port), timeout=5.0)
            wire.send_message(
                first,
                {"t": "hello", "replica": 1, "watermark": -1, "pid": 1},
            )
            transport.take_hello(1, timeout=5.0)
            # A restarted process dials in again with the same replica id;
            # the new connection must win.
            transport.discard_hello(1)
            second = socket.create_connection((host, port), timeout=5.0)
            wire.send_message(
                second,
                {"t": "hello", "replica": 1, "watermark": 5, "pid": 2},
            )
            hello = transport.take_hello(1, timeout=5.0)
            assert hello["pid"] == 2
            assert transport.connected(1)
            assert transport.control_send(1, {"t": "start"})
            assert wire.FrameReader(second).read() == [{"t": "start"}]
            first.close()
            second.close()
        finally:
            transport.close()

    @pytest.mark.parametrize(
        "hello",
        [
            {**HELLO},  # no id at all
            {**HELLO, "replica": 99},  # an id nobody armed a waiter for
            {**HELLO, "replica": "0"},
            {**HELLO, "replica": True},
            {"t": "stats", "replica": 0},  # not a hello
        ],
        ids=["missing", "unknown", "str", "bool", "not-a-hello"],
    )
    def test_a_hello_nobody_waits_for_is_refused(self, fake_replicas, hello):
        with fake_replicas(1) as (transport, _readers):
            transport.discard_hello(1)  # armed, but not for what is claimed
            sock = socket.create_connection(
                (transport.host, transport.port), timeout=5.0
            )
            try:
                wire.send_message(sock, hello)
                assert wire.FrameReader(sock).read() is None  # closed on us
            finally:
                sock.close()
            assert sorted(transport._links) == [0]
            # The reader thread survived it.
            assert transport.control_send(0, {"t": "start"})

    def test_an_unarmed_second_hello_cannot_take_over_a_live_link(
        self, fake_replicas
    ):
        received = []
        with fake_replicas(
            1, on_message=lambda replica_id, message: received.append(message)
        ) as (transport, readers):
            # A second connection claiming replica 0, with no waiter armed.
            intruder = socket.create_connection(
                (transport.host, transport.port), timeout=5.0
            )
            wire.send_message(intruder, {**HELLO, "replica": 0, "pid": 0})
            try:
                assert wire.FrameReader(intruder).read() is None
                # Forged answers went nowhere; the replica's still flow,
                # in both directions.
                wire.send_message(intruder, {"t": "r", "resps": ()})
                genuine = {"t": "stats", "req": 1}
                wire.send_message(readers[0]._sock, genuine)
                wait_until(lambda: received)
                assert received == [genuine]
                assert transport.control_send(0, {"t": "start"})
                assert readers[0].read() == [{"t": "start"}]
            finally:
                intruder.close()

    def test_a_handler_that_raises_costs_its_own_link_only(
        self, fake_replicas, capsys
    ):
        received = []

        def on_message(replica_id, message):
            if message.get("req") == "boom":
                raise KeyError("cut")
            received.append((replica_id, message))

        with fake_replicas(2, on_message=on_message) as (transport, readers):
            wire.send_message(readers[0]._sock, {"t": "c", "req": "boom"})
            assert readers[0].read() is None  # closed on us, not left open
            assert not transport.connected(0)
            assert "KeyError" in capsys.readouterr().err  # and reported
            wire.send_message(readers[1]._sock, {"t": "stats", "req": 2})
            wait_until(lambda: received)
            assert received == [(1, {"t": "stats", "req": 2})]
            assert transport.connected(1)


#: An import of asyncio, or a call through it (prose may still name the
#: frontend's loop).
_ASYNCIO = re.compile(
    r"^\s*import\s+(?:[\w.]+\s*,\s*)*asyncio\b"
    r"|^\s*from\s+asyncio\b"
    r"|\basyncio\s*\.\s*\w+\s*\("
)


class TestOneConcurrencyModel:
    def test_only_the_io_loop_module_imports_asyncio(self):
        # The coordinator's sockets run on one asyncio loop; everything
        # else under runtime/ and common/ reaches it through
        # ``repro.runtime.ioloop``, which imports asyncio only once a loop
        # is needed.
        root = list(repro.__path__)[0]
        offenders = []
        for package in ("runtime", "common"):
            for dirpath, _dirnames, filenames in os.walk(os.path.join(root, package)):
                for name in filenames:
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, name)
                    if os.path.relpath(path, root) == os.path.join("runtime", "ioloop.py"):
                        continue
                    with open(path, "r", encoding="utf-8") as handle:
                        for line_number, line in enumerate(handle, 1):
                            if _ASYNCIO.search(line):
                                offenders.append(f"{path}:{line_number}: {line.strip()}")
        assert not offenders, "asyncio used:\n" + "\n".join(offenders)

    def test_a_replica_process_never_loads_asyncio(self):
        # Everything a replica child imports, in a fresh interpreter.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(list(repro.__path__)[0]))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.runtime.replica_proc; "
             "print('asyncio' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert loaded.stdout.strip() == "False"

    def test_a_replica_process_never_loads_the_coordinator_side(self):
        # Every package resolves its exports lazily: a replica child runs
        # the engine and its inbox, and never needs the clusters, the
        # checker, the TCP server or the simulator's pieces.  It loads its
        # service when it starts; a kvstore replica never loads NetFS or
        # the file system behind it.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(list(repro.__path__)[0]))
        coordinator_side = (
            "repro.runtime.cluster", "repro.runtime.proccluster",
            "repro.runtime.linearizability", "repro.runtime.multicast",
            "repro.runtime.transport.tcp",
            "repro.common.config", "repro.core.cg",
            "repro.multicast.merge", "repro.multicast.order_checker",
            "repro.fs.memfs", "repro.services.netfs",
        )
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.runtime.replica_proc; "
             f"print([m for m in {coordinator_side!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert loaded.stdout.strip() == "[]"
        # The package's public names still resolve, on first access.
        exported = subprocess.run(
            [sys.executable, "-c",
             "from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster, "
             "CheckpointPolicy, check_kv_history; print(ProcessPSMRCluster.__module__)"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert exported.stdout.strip() == "repro.runtime.proccluster"

    def test_a_kvstore_coordinator_never_loads_netfs(self):
        # The cluster resolves its service's spec when it is built: a
        # kvstore cluster, constructed and not started, has loaded neither
        # NetFS nor the file system behind it.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(list(repro.__path__)[0]))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.runtime.proccluster as proc; "
             "cluster = proc.ProcessPSMRCluster(service='kvstore'); "
             "cluster.shutdown(); "
             "print(cluster.spec.name, [m for m in ('repro.services.netfs', "
             "'repro.fs.memfs') if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert loaded.stdout.strip() == "kvstore []"

    def test_an_unknown_service_is_a_configuration_error(self):
        from repro.runtime.proccluster import ProcessPSMRCluster

        with pytest.raises(ConfigurationError, match="unknown service 'nosuch'"):
            ProcessPSMRCluster(service="nosuch")


class TestLazyPackageExports:
    @pytest.mark.parametrize(
        "package",
        [
            "repro.common", "repro.core", "repro.multicast", "repro.runtime",
            "repro.runtime.transport", "repro.fs", "repro.services",
        ],
    )
    def test_every_export_is_the_defining_modules_object(self, package):
        import importlib

        package = importlib.import_module(package)
        for name, module in package._EXPORTS.items():
            assert getattr(package, name) is getattr(
                importlib.import_module(module), name
            )
        assert sorted(package.__all__) == sorted(package._EXPORTS)

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.runtime

        with pytest.raises(AttributeError, match="no attribute 'compact'"):
            repro.runtime.compact
        assert not hasattr(repro.runtime, "checkpoint_bytes")
        with pytest.raises(ImportError):
            exec("from repro.runtime import estimate_checkpoint_size", {})
