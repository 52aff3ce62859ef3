"""Unit tests for the transport package: wire protocol + TCP coordinator."""

import collections
import contextlib
import socket
import struct
import threading
import time

import pytest

from repro.common import codec, framing
from repro.common.errors import CheckpointError, ProtocolError, RecoveryError
from repro.common.faults import FaultPlane, ReliableLink
from repro.core.command import Command, Response
from repro.multicast.group import ALL_GROUPS
from repro.runtime.multicast import LocalAtomicMulticast
from repro.runtime.replica_proc import ReplicaProcess
from repro.runtime.transport import (
    TcpCoordinatorTransport,
    TransportRoute,
    wire,
)


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
class TestWireEncoding:
    def test_message_roundtrips_through_a_frame(self):
        message = {"t": "d", "ls": 3, "s": 7, "dst": "ALL", "b": b"\x00cmd"}
        data = wire.encode_message(message)
        parsed = framing.parse_header(
            data[: framing.HEADER_SIZE], framing.WIRE_MAGIC
        )
        assert parsed is not None
        length, crc = parsed
        payload = data[framing.HEADER_SIZE:]
        assert framing.payload_valid(payload, length, crc)
        assert wire.decode_payload(payload) == message

    def test_destinations_roundtrip(self):
        assert wire.encode_destinations(ALL_GROUPS) == ALL_GROUPS
        assert wire.encode_destinations({3, 1, 2}) == (1, 2, 3)
        for destinations in (ALL_GROUPS, (1, 2)):
            frame = wire.encode_message(
                {"t": "d", "ls": 0, "s": 0, "dst": destinations, "b": b""}
            )
            decoded = wire.decode_payload(frame[framing.HEADER_SIZE:])["dst"]
            assert decoded == destinations
            # Tuples stay tuples: hashable for the workers' plan cache.
            assert type(decoded) is type(destinations)

    def test_chain_roundtrip(self):
        chain = [
            {"kind": "full", "sequence": 4, "payload": {0: b"x"}},
            {"kind": "delta", "sequence": 9, "payload": {1: b"y"}},
        ]
        assert wire.decode_chain(wire.encode_chain(chain)) == chain

    def test_marker_helpers(self):
        marker = wire.make_marker(17, 2)
        assert wire.is_marker(marker)
        assert marker["marker"] == 17 and marker["source"] == 2
        assert not wire.is_marker({"key": 1})
        assert not wire.is_marker(b"not a dict")

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
        deliver = {"t": "d", "ls": 4, "s": 11, "dst": (3, 5), "b": body}
        assert wire.encode_message(deliver)[framing.HEADER_SIZE:] == (
            struct.pack(">BqqBH2I", ord("d"), 4, 11, 0, 2, 3, 5) + body
        )
        marker = {"t": "d", "ls": 0, "s": 1, "dst": "ALL", "b": {"k": None}}
        assert wire.encode_message(marker)[framing.HEADER_SIZE:] == (
            struct.pack(">BqqBH", ord("d"), 0, 1, 1, 0xFFFF)
            + b"d\x00\x00\x00\x01s\x00\x00\x00\x01kN"
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
        message = {
            "t": "d", "ls": 2**63 - 1, "s": 2**63 - 1, "dst": (2**32 - 1,),
            "b": b"",
        }
        frame = wire.encode_message(message)
        assert wire.decode_payload(frame[framing.HEADER_SIZE:]) == message

    @pytest.mark.parametrize(
        "destinations",
        [(2**32,), (-1,), tuple(range(codec.MAX_DESTINATIONS + 1))],
        ids=["group-id", "negative-group-id", "destination-count"],
    )
    def test_a_destination_field_past_its_width_is_refused(self, destinations):
        message = {"t": "d", "ls": 0, "s": 0, "dst": destinations, "b": b""}
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
#: What one burst looks like on a replica's socket: ``d`` frames with a
#: control frame among them and one frame far larger than the others.
STREAM = [
    {"t": "d", "ls": 0, "s": 10, "dst": (1,), "b": b"first"},
    {"t": "d", "ls": 1, "s": 11, "dst": "ALL", "b": b""},
    {"t": "stats?", "req": 4},
    {"t": "restore", "mode": "full", "sequence": 9, "state": b"s" * 700},
    {"t": "d", "ls": 2, "s": 12, "dst": (1, 2), "b": b"x" * 90},
    {"t": "bye"},
]


def _deliver_payload(kind=0, count=1, group_ids=(1,), body=b"cmd"):
    return (
        struct.pack(">BqqBH", ord("d"), 0, 0, kind, count)
        + struct.pack(">%dI" % len(group_ids), *group_ids) + body
    )


_RESPONSE = struct.pack(">qq", 3, 4) + b"NN"  # uid, value None, error None

#: CRC-valid payloads no encoder produces, by what is wrong with them.
MALFORMED = {
    "empty payload": b"",
    "unknown first byte": b"\x00abc",
    "d: short header": _deliver_payload()[:12],
    "d: destination count past the payload": _deliver_payload(
        count=4, body=b""
    ),
    "d: unknown body kind": _deliver_payload(kind=9),
    "d: value body cut short": _deliver_payload(kind=1, body=b"s\x00\x00"),
    "d: trailing bytes after a value body": _deliver_payload(
        kind=1, body=b"N\x00"
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
        monkeypatch.setattr(wire.FrameReader, "SIZE", size)
        frames = [wire.encode_message(message) for message in STREAM]
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
        frames = [bytearray(wire.encode_message(message)) for message in STREAM]
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
            wire.encode_message(STREAM[0]),
            framing.encode_frame(framing.WIRE_MAGIC, MALFORMED[case]),
            wire.encode_message(STREAM[1]),
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
        stream = b"".join(wire.encode_message(message) for message in STREAM)
        left, right = socket.socketpair()
        try:
            left.sendall(stream[:-1])
            left.close()
            reader = wire.FrameReader(right)
            assert _read_to_eof(reader) == STREAM[:-1]
            assert reader.read() is None
        finally:
            right.close()


# ----------------------------------------------------------------------
# TCP coordinator transport
# ----------------------------------------------------------------------
@contextlib.contextmanager
def fake_replicas(count, fault_plane=None):
    """A started transport with ``count`` replica connections past their
    hello; yields ``(transport, [FrameReader per replica])``."""
    transport = TcpCoordinatorTransport(fault_plane)
    host, port = transport.start()
    socks = []
    try:
        for replica_id in range(count):
            transport.discard_hello(replica_id)
            sock = socket.create_connection((host, port), timeout=5.0)
            socks.append(sock)
            wire.send_message(
                sock,
                {"t": "hello", "replica": replica_id, "watermark": -1,
                 "manifest": (), "pid": replica_id},
            )
            transport.take_hello(replica_id, timeout=5.0)
        yield transport, [wire.FrameReader(sock) for sock in socks]
    finally:
        for sock in socks:
            sock.close()
        # Let the connection handlers see the EOFs and finish, so closing
        # the loop under them does not destroy a pending task.
        deadline = time.monotonic() + 5.0
        while (
            any(transport.connected(replica_id) for replica_id in range(count))
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        transport.close()


@contextlib.contextmanager
def held_loop(transport):
    """Park the coordinator loop inside a callback for the block; yields
    the callbacks scheduled onto it from other threads meanwhile.  On
    exit the loop is released and everything scheduled has run."""
    loop = transport._loop
    entered, release = threading.Event(), threading.Event()

    def hold():
        entered.set()
        release.wait(10.0)

    loop.call_soon_threadsafe(hold)
    assert entered.wait(5.0)
    scheduled = []
    schedule = loop.call_soon_threadsafe

    def recording(callback, *args):
        scheduled.append(callback)
        return schedule(callback, *args)

    loop.call_soon_threadsafe = recording
    try:
        yield scheduled
    finally:
        del loop.call_soon_threadsafe
        release.set()
        run_pending(transport)


def run_pending(transport):
    """Return once every callback already scheduled on the loop has run
    (callbacks run in FIFO order, so a marker behind them tells)."""
    ran = threading.Event()
    transport._loop.call_soon_threadsafe(ran.set)
    assert ran.wait(5.0)


def route_to(*replica_ids):
    return TransportRoute([], [(replica_id, []) for replica_id in replica_ids])


def read_frames(reader, count):
    frames = []
    while len(frames) < count:
        burst = reader.read()
        assert burst is not None, f"stream ended after {len(frames)} frames"
        frames.extend(burst)
    return frames


class TestBurstPath:
    COUNT = 40

    def send_burst(self, transport, route):
        for sequence in range(self.COUNT):
            transport.send(route, (sequence, ALL_GROUPS, b"cmd%d" % sequence))

    def test_a_burst_is_one_wakeup_and_one_write_per_link(self):
        count = self.COUNT
        with fake_replicas(2) as (transport, readers):
            with held_loop(transport) as scheduled:
                self.send_burst(transport, route_to(0, 1))
                assert transport.in_flight() == 2 * count
                assert transport.in_flight(1) == count
                assert transport.frames_written == 0
            assert scheduled == [transport._drain]
            assert transport.writes == 2
            assert transport.frames_written == 2 * count
            assert transport.in_flight() == 0
            for reader in readers:
                frames = read_frames(reader, count)
                assert [frame["ls"] for frame in frames] == list(range(count))
                assert [frame["s"] for frame in frames] == list(range(count))
                assert {frame["t"] for frame in frames} == {"d"}

    def test_a_lone_frame_leaves_at_once(self):
        with fake_replicas(1) as (transport, readers):
            transport.send(route_to(0), (0, ALL_GROUPS, b"only"))
            (frame,) = read_frames(readers[0], 1)
            assert (frame["ls"], frame["b"]) == (0, b"only")
            run_pending(transport)
            assert (transport.writes, transport.frames_written) == (1, 1)
            assert transport.in_flight() == 0

    def test_replay_is_one_wakeup(self):
        count = self.COUNT
        replay = [
            (sequence, ALL_GROUPS, frozenset({1}), b"r%d" % sequence)
            for sequence in range(count)
        ]
        with fake_replicas(1) as (transport, readers):
            with held_loop(transport) as scheduled:
                transport.on_replica_registered(0, {}, replay)
                assert transport.in_flight(0) == count
            assert scheduled == [transport._drain]
            assert (transport.writes, transport.frames_written) == (1, count)
            frames = read_frames(readers[0], count)
            assert [frame["ls"] for frame in frames] == list(range(count))
            assert [frame["b"] for frame in frames] == [e[3] for e in replay]

    def test_a_control_frame_keeps_its_place_between_deliveries(self):
        with fake_replicas(1) as (transport, readers):
            with held_loop(transport):
                transport.send(route_to(0), (0, ALL_GROUPS, b"before"))
                assert transport.control_send(0, {"t": "stats?", "req": 7})
                transport.send(route_to(0), (1, ALL_GROUPS, b"after"))
            assert (transport.writes, transport.frames_written) == (1, 3)
            frames = read_frames(readers[0], 3)
            assert [frame["t"] for frame in frames] == ["d", "stats?", "d"]
            assert [frames[0]["b"], frames[2]["b"]] == [b"before", b"after"]

    def test_an_epoch_bump_before_the_drain_voids_the_copies(self):
        count = self.COUNT
        with fake_replicas(2) as (transport, readers):
            with held_loop(transport):
                self.send_burst(transport, route_to(0, 1))
                transport.on_replica_unregistered(1, {})
                # Stale-epoch copies are dropped already, as far as a
                # drain check is concerned ...
                assert transport.in_flight(1) == 0
                assert transport.in_flight() == count
                assert len(transport._in_flight) == 2
            # ... and their key is gone once the drain has seen them.
            assert transport._in_flight == {}
            assert (transport.writes, transport.frames_written) == (1, count)
            assert len(read_frames(readers[0], count)) == count
            # Nothing was written toward the voided registration.
            assert transport.control_send(1, {"t": "bye"})
            assert read_frames(readers[1], 1) == [{"t": "bye"}]

    def test_faults_still_yield_each_message_once_in_order(self):
        count = self.COUNT
        plane = FaultPlane(seed=5, retransmit_backoff=0.002)
        plane.set_link(
            duplicate=0.5, delay=0.5, delay_range=(0.0, 0.01),
            reorder=0.2, reorder_window=0.005,
        )
        plane.isolate("replica1")
        with fake_replicas(2, plane) as (transport, readers):
            with held_loop(transport):
                self.send_burst(transport, route_to(0, 1))
                plans = [e for e in plane.schedule() if e[0] == "plan"]
                copies = {
                    node: sum(len(e[3]) for e in plans if e[2] == node)
                    for node in ("replica0", "replica1")
                }
                assert copies["replica0"] > count  # some were duplicated
                assert transport.in_flight(0) == copies["replica0"]
                assert transport.in_flight(1) == copies["replica1"]
            # One plan per replica per message, in ascending replica order.
            assert [e[2] for e in plans] == ["replica0", "replica1"] * count

            def released_by(reader):
                link, released = ReliableLink(), []
                while len(released) < count:
                    for frame in read_frames(reader, 1):
                        released.extend(link.accept(frame["ls"], frame))
                return [frame["s"] for frame in released]

            assert released_by(readers[0]) == list(range(count))
            # The partitioned link's copies were re-parked, not lost and
            # not counted out.
            assert plane.stats["blocked_retries"] > 0
            assert transport.in_flight(1) == copies["replica1"]
            plane.heal()
            assert released_by(readers[1]) == list(range(count))
            deadline = time.monotonic() + 5.0
            while transport.in_flight() and time.monotonic() < deadline:
                time.sleep(0.005)  # trailing duplicates on their timers
            assert transport.in_flight() == 0
            assert transport._in_flight == {}
            assert transport.frames_written == sum(copies.values())


def _unreadable_frame(how):
    """A frame the receiver cannot use: a flipped payload byte under the
    old CRC, or a valid CRC over a payload no encoder produces."""
    if how == "malformed":
        return framing.encode_frame(
            framing.WIRE_MAGIC, MALFORMED["d: unknown body kind"]
        )
    frame = bytearray(wire.encode_message(STREAM[0]))
    frame[-1] ^= 0xFF
    return bytes(frame)


class TestSerialiseOnce:
    def test_a_keyed_command_is_encoded_once_for_all_replicas(self, monkeypatch):
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

        with fake_replicas(replicas) as (transport, readers):
            multicast = LocalAtomicMulticast(4, transport=transport)
            for replica_id in range(replicas):
                multicast.register_replica(replica_id, range(1, 5))
            monkeypatch.setattr(codec, "encode_command", encode_command)
            for name in ("encode", "encode_value"):
                monkeypatch.setattr(codec, name, general_codec)
            for n in range(commands):
                multicast.multicast(
                    group, Command((1, n), "update", destinations=group)
                )
            assert calls == {"encode_command": commands}
            for reader in readers:
                frames = read_frames(reader, commands)
                assert [frame["ls"] for frame in frames] == list(range(commands))
                assert [frame["b"] for frame in frames] == bodies
                assert {frame["dst"] for frame in frames} == {(2,)}
            run_pending(transport)
            assert transport.frames_written == replicas * commands


class _NamesItsWorker:
    """A toy service: answers with the executing thread's name, except
    ``lock``, whose answer no serialiser can carry."""

    def apply(self, command):
        if command.name == "lock":
            return Response(uid=command.uid, value=threading.Lock())
        return Response(uid=command.uid, value=threading.current_thread().name)


class TestUnencodableResponse:
    """One answer the codec cannot carry costs that answer only: not the
    ``r`` frame it shares with others, not the worker that sends it."""

    def test_it_becomes_an_error_response_and_the_worker_lives(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)  # a dead worker reads as EOF here, not a hang
        replica = ReplicaProcess(right, 0, 2, _NamesItsWorker, None)
        server = threading.Thread(target=replica.serve, args=([],), daemon=True)
        server.start()
        group = frozenset({1})
        reader = wire.FrameReader(left)

        def deliver(first, *names):
            """One write, so one run: the worker drains it as one batch."""
            left.sendall(b"".join(
                wire.encode_message({
                    "t": "d", "ls": n, "s": n, "dst": (1,),
                    "b": codec.encode_command(
                        Command((7, n), name, {}, destinations=group)
                    ),
                })
                for n, name in enumerate(names, first)
            ))

        try:
            for message in (
                {"t": "welcome", "batch": 32, "barrier_timeout": 5.0,
                 "full_every": None, "compact_after": None},
                {"t": "start"},
            ):
                wire.send_message(left, message)
            deliver(0, "name", "lock", "name")
            (flush,) = reader.read()  # all three answers, in one frame
            (first, worker, _), (second, value, error), (third, same, _) = (
                flush["resps"]
            )
            assert (first, second, third) == ((7, 0), (7, 1), (7, 2))
            assert worker == same == "psmr-replica0-t1"
            assert value is None and "lock" in error
            deliver(3, "name")  # the group's next command: same worker, alive
            assert reader.read() == [
                {"t": "r", "resps": (((7, 3), worker, None),)}
            ]
        finally:
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
            left.sendall(wire.encode_message(STREAM[0]) + _unreadable_frame(how))
            replica.serve([])  # returns: no exception, no further read
            assert replica.queues[1].qsize() == 1  # STREAM[0] was queued
            assert replica.queues[2].qsize() == 0
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
                {"t": "hello", "replica": 0, "watermark": -1,
                 "manifest": (), "pid": 0},
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
            hello = {"t": "hello", "replica": 0, "watermark": -1,
                     "manifest": (), "pid": 4242}
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
                {"t": "hello", "replica": 1, "watermark": -1,
                 "manifest": (), "pid": 1},
            )
            transport.take_hello(1, timeout=5.0)
            # A restarted process dials in again with the same replica id;
            # the new connection must win.
            transport.discard_hello(1)
            second = socket.create_connection((host, port), timeout=5.0)
            wire.send_message(
                second,
                {"t": "hello", "replica": 1, "watermark": 5,
                 "manifest": (), "pid": 2},
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
