"""Process-mode wire protocol: framed codec messages over a socket.

Every message is one :mod:`repro.common.framing` frame (magic
``PSMRWIR1``, length prefix, CRC-32) whose payload is a dict encoded
with the :mod:`repro.common.codec` binary format.  The ``"t"`` key names
the message type:

======================  =====  ==============================================
type                    dir    meaning
======================  =====  ==============================================
``hello``               c→s    first frame after connect: replica id, pid,
                               durable-chain watermark + manifest
``welcome``             s→c    handshake reply: batch size, barrier timeout
                               and the checkpoint-policy knobs the engine
                               reads locally (full_every, compact_after)
``restore``             s→c    recovery state install before start: mode
                               ``full`` (sequence + state) or ``chain``
                               (suffix entries extending the local chain)
``start``               s→c    registration complete; spin up workers
``d``                   s→c    one ordered message: per-link sequence
                               ``ls`` (the fault proxy may reorder or
                               duplicate frames; a ReliableLink restores
                               the gap-free stream), global sequence,
                               destinations, body (encoded command bytes
                               or a marker dict)
``r``                   c→s    batched command responses
``mk``                  c→s    marker executed: sequence, chain manifest,
                               checkpoint kind/bytes, state (source
                               markers only)
``sh``                  c→s    shard-map update executed: sequence plus
                               the hand-off artifact's stats (ranges,
                               entries, bytes, verified)
``stats?``/``stats``    s→c/c→s  execution counters + queue backlog
``snap?``/``snap``      s→c/c→s  service snapshot
``chain?``/``chain``    s→c/c→s  chain-suffix donation after a cut
``compact``/``compacted`` s→c/c→s  compact the local delta run if due
``bye``                 s→c    clean shutdown request
======================  =====  ==============================================

``destinations`` travel as the string ``"ALL"`` or a sorted tuple of
group ids; chain entries as ``(kind, sequence, payload)`` tuples.
"""

import socket

from repro.common import codec as _codec
from repro.common import framing
from repro.multicast.group import ALL_GROUPS


class WireError(Exception):
    """A peer sent something unframeable; the connection is unusable."""


MARKER_KEY = "__psmr_marker__"


def make_marker(marker_id, source_replica_id):
    """A checkpoint marker as it is multicast in both runtimes: a plain
    dict, because it must be able to cross the wire.  The coordinator-side
    ``CheckpointMarker`` waiter stays behind, found again by ``marker``."""
    return {
        MARKER_KEY: True,
        "marker": marker_id,
        "source": source_replica_id,
    }


def is_marker(payload):
    return isinstance(payload, dict) and payload.get(MARKER_KEY)


SHARD_KEY = "__psmr_shard__"


def make_shard_update(update_id, map_wire, moved_ranges):
    """A shard-map update as it is multicast: a plain wire dict carrying
    the new map (:meth:`ShardMap.to_wire`) and the moved hash ranges
    ``(lo, hi, from_group, to_group)`` the hand-off artifact must cover."""
    return {
        SHARD_KEY: True,
        "update": update_id,
        "map": map_wire,
        "moved": tuple(tuple(entry) for entry in moved_ranges),
    }


def is_shard_update(payload):
    return isinstance(payload, dict) and payload.get(SHARD_KEY)


def encode_message(message):
    """One wire frame for a message dict."""
    return framing.encode_frame(
        framing.WIRE_MAGIC, _codec.dumps(message, "binary")
    )


def decode_payload(payload):
    """Decode a verified frame payload back into the message dict."""
    return _codec.decode(payload)


def encode_destinations(destinations):
    """Destinations as codec-friendly wire data (`"ALL"` or sorted ids)."""
    if destinations == ALL_GROUPS:
        return ALL_GROUPS
    return tuple(sorted(destinations))


def decode_destinations(wire):
    """Invert :func:`encode_destinations` (tuples stay tuples: every
    consumer — ``plan_execution``, ``delivering_threads`` — accepts an
    iterable of group ids, and tuples are hashable for the plan cache)."""
    if wire == ALL_GROUPS:
        return ALL_GROUPS
    return tuple(wire)


def encode_chain(chain):
    """A checkpoint chain as ``(kind, sequence, payload)`` wire tuples."""
    return tuple(
        (entry["kind"], entry["sequence"], entry["payload"]) for entry in chain
    )


def decode_chain(wire):
    """Invert :func:`encode_chain` back into chain-entry dicts."""
    return [
        {"kind": kind, "sequence": sequence, "payload": payload}
        for kind, sequence, payload in wire
    ]


# ----------------------------------------------------------------------
# Blocking-socket helpers (the replica-process side)
# ----------------------------------------------------------------------
class FrameReader:
    """Buffered frame reader: one ``recv_into`` takes whatever a burst
    left in the socket, then every complete frame in it is decoded.

    The buffer is preallocated and reused: no read allocates a buffer of
    its own, only the decoded messages.  A frame larger than the buffer
    (a state transfer) doubles it as its bytes arrive — never up front
    from the header's length, which a corrupted header could inflate —
    and the buffer drops back to its initial size once it is empty.
    """

    SIZE = 1 << 16

    def __init__(self, sock):
        self._sock = sock
        self._view = memoryview(bytearray(self.SIZE))
        self._end = 0  # buffered bytes; the first always starts a frame
        self._error = None

    def read(self):
        """Block until a frame is complete; return the messages of every
        complete frame received so far, in order.

        ``None`` on EOF/reset, mid-frame included; :class:`WireError` on
        a corrupt frame (a byte error on an established stream is fatal)
        — raised once the frames ahead of it have been returned.
        """
        messages = []
        while not messages:
            if self._error is not None:
                raise WireError(self._error)
            try:
                count = self._sock.recv_into(self._view[self._end:])
            except OSError:
                return None
            if not count:
                return None
            self._end += count
            self._error = self._parse(messages)
        return messages

    def _parse(self, messages):
        """Decode the complete frames into ``messages`` and move the
        partial one behind them to the front; the error text if a frame
        is corrupt."""
        view, start, end = self._view, 0, self._end
        while end - start >= framing.HEADER_SIZE:
            body = start + framing.HEADER_SIZE
            parsed = framing.parse_header(view[start:body], framing.WIRE_MAGIC)
            if parsed is None:
                return "bad frame header"
            length, crc = parsed
            if body + length > end:
                break
            payload = view[body:body + length]
            if not framing.payload_valid(payload, length, crc):
                return "frame checksum mismatch"
            messages.append(decode_payload(payload))
            start = body + length
        self._end = end - start
        if start:
            view[:self._end] = view[start:end]
        if self._end == len(view):
            self._view = memoryview(bytearray(2 * len(view)))
            self._view[:len(view)] = view
        elif not self._end and len(view) > self.SIZE:
            self._view = memoryview(bytearray(self.SIZE))
        return None


def send_message(sock, message, lock=None):
    """Write one framed message (under ``lock`` when writers share the
    socket); returns False when the connection is gone."""
    data = encode_message(message)
    try:
        if lock is not None:
            with lock:
                sock.sendall(data)
        else:
            sock.sendall(data)
    except OSError:
        return False
    return True


def connect_with_backoff(host, port, deadline_seconds=15.0, base_delay=0.05):
    """Dial the coordinator, retrying with exponential backoff.

    A replica process races the coordinator's listen socket at spawn and
    may outlive a coordinator restart; both sides of that race end with
    the same loop: try, back off, try again until the deadline.  The
    returned socket blocks: the 2 s bound is on the dial, and left on the
    stream it would read as EOF in a replica that sat idle that long.
    """
    import time

    deadline = time.monotonic() + deadline_seconds
    delay = base_delay
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=2.0)
            sock.settimeout(None)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2.0, 1.0)
