"""Unit tests for the transport package: wire protocol + TCP coordinator."""

import socket
import threading

import pytest

from repro.common import framing
from repro.common.errors import RecoveryError
from repro.multicast.group import ALL_GROUPS
from repro.runtime.transport import TcpCoordinatorTransport, wire


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
        assert wire.decode_destinations(ALL_GROUPS) == ALL_GROUPS
        decoded = wire.decode_destinations([1, 2])
        assert decoded == (1, 2)
        assert isinstance(decoded, tuple)  # hashable for the plan cache

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


# ----------------------------------------------------------------------
# Blocking socket helpers (the replica-process side)
# ----------------------------------------------------------------------
class TestSocketHelpers:
    def test_send_then_recv_roundtrips(self):
        left, right = socket.socketpair()
        try:
            assert wire.send_message(left, {"t": "hello", "replica": 0})
            assert wire.recv_message(right) == {"t": "hello", "replica": 0}
        finally:
            left.close()
            right.close()

    def test_recv_returns_none_on_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert wire.recv_message(right) is None
        finally:
            right.close()

    def test_recv_raises_wire_error_on_corrupt_frame(self):
        left, right = socket.socketpair()
        try:
            data = bytearray(wire.encode_message({"t": "start"}))
            data[-1] ^= 0xFF  # flip a payload byte: CRC must catch it
            left.sendall(bytes(data))
            with pytest.raises(wire.WireError):
                wire.recv_message(right)
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
            conn.close()
        finally:
            thread.join()
            server.close()


# ----------------------------------------------------------------------
# TCP coordinator transport
# ----------------------------------------------------------------------
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
            reply = wire.recv_message(client)
            assert reply == {"t": "welcome", "mpl": 2}
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
            assert wire.recv_message(second) == {"t": "start"}
            first.close()
            second.close()
        finally:
            transport.close()
