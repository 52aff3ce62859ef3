"""Process-mode wire protocol: framed messages over a socket.

Every message is one :mod:`repro.common.framing` frame (magic
``PSMRWIR1``, length prefix, CRC-32) carrying a message dict whose
``"t"`` key names the type.  ``d`` and ``r``, which carry commands and
their answers, have a fixed ``struct`` layout (second table) and batch
them: a ``d`` frame is a burst of ordered messages, an ``r`` frame a
batch of responses.  Every other type is the dict in the
:mod:`repro.common.codec` binary format.  The first payload byte (``d``,
``r`` or the codec's ``0xC3``) tells them apart; :func:`encode_message`
/ :func:`decode_payload` speak dicts for all of them — a ``d`` frame is
encoded from one message ``{"t": "d", "s", "dst", "b"}`` and decoded as
``{"t": "d", "msgs": [(s, dst, b), ...]}``; the transport writes a whole
run with :func:`deliver_frames`.  A link is a TCP connection: it carries
its messages once and in order, so they need no numbering of their own.

======================  =====  ==============================================
type                    dir    meaning
======================  =====  ==============================================
``hello``               c→s    first frame after connect: replica id, pid,
                               durable-chain watermark
``welcome``             s→c    handshake reply: barrier timeout and the
                               checkpoint-policy knob the engine reads
                               locally (full_every).  Each connection
                               is a fresh link: nothing still held
                               toward an earlier one is written to it
``restore``             s→c    recovery state install before start: mode
                               ``full`` (sequence + state) or ``chain``
                               (suffix entries extending the local chain)
``start``               s→c    registration complete; spin up workers
``d``                   s→c    a burst of ordered messages, in the order
                               the replica delivers them (the pump keeps
                               each link FIFO under a fault plane): each
                               with its global sequence, destinations and
                               body (encoded command bytes or a cut dict,
                               :func:`make_cut`)
``r``                   c→s    batched command responses
``c``                   c→s    cut executed: cut id, sequence, kind
                               (``full`` / ``delta`` checkpoint or
                               ``shard`` switch), state (source markers
                               only), boundary count, error (a failed
                               snapshot or write)
``stats?``/``stats``    s→c/c→s  execution counters + queue backlog
``snap?``/``snap``      s→c/c→s  service snapshot
``chain?``/``chain``    s→c/c→s  chain-suffix donation after a cut
``bye``                 s→c    clean shutdown request
======================  =====  ==============================================

Fixed layouts, big-endian; *value* is one tagged codec value without the
stream header (:func:`repro.common.codec.encode_value`):

=========  ================================================================
``d``      ``'d'`` u8 · message count u32 · per message: length u32 · the
           ordered part: ``s`` i64 · body kind u8 · destination count u16
           · count x group id u32 · body, to the length's end.  Kind 0:
           the encoded command, verbatim — the ordering layer does not
           parse what it orders; kind 1: one *value* (a cut dict).  Every
           link carries the same bytes of one multicast:
           :func:`ordered_part` builds them once, :func:`deliver_frames`
           frames one link's run of them — every run between two control
           frames, cut so that no frame's payload passes
           :attr:`FrameReader.SIZE` unless one message alone does.  One
           message is the count-1 case (:func:`deliver_frame`).
``r``      ``'r'`` u8 · response count u32 · per response: uid (i64, i64)
           · ``value`` *value* · ``error`` *value*, both written and read
           by :func:`~repro.common.codec.encode_answer` /
           :func:`~repro.common.codec.decode_answer`.  A ``value`` outside
           the codec's vocabulary travels as ``None`` with an ``error``
           naming its type; the frame's other responses are unaffected.
command    ``0xC3`` u8 · layout ``2`` u8 · uid (i64, i64) · ``size_bytes``
           u32 · ``submitted_at`` f64 · destination count u16 · name length
           u16 · count x group id u32 · name, UTF-8 · ``args`` *value*
           (:func:`repro.common.codec.encode_command`).  A batch command
           (name ``__batch__``) is one too: its ``args`` are ``{"calls":
           [(name, args), ...]}``, and its answer in an ``r`` frame is
           the *value* ``[(value, error), ...]``.
=========  ================================================================

A destination count of ``0xFFFF`` / ``0xFFFE`` stands for ``"ALL"`` /
``None`` and carries no ids, so a destination field holds at most 65533
of them; in a ``d`` dict ``dst`` is ``"ALL"`` or a sorted tuple.  Group
ids up to 2**32 - 1 are far above any ``mpl`` a ``GroupLayout`` or
``ShardMap`` can be built for.  A uid component, group id, name or
``size_bytes`` past its width raises
:class:`~repro.common.errors.ProtocolError` when the command is encoded
— nothing wraps — and a CRC-valid payload that contradicts its layout
(short header, a count or length running past the end, a ``d`` message
shorter than its destination ids, bytes left over, an unknown body kind,
first byte or value tag) is a :class:`WireError`, like a bad checksum —
and nothing of that frame is delivered.  The value tags are the codec's
closed vocabulary, NetFS's ``Stat`` (``'A'`` · is_dir u8 · size i64 ·
mode u32 · nlink u32 · atime f64 · mtime f64) among them; no tag and no
payload kind reaches a general deserialiser.  Chain entries travel as
``(kind, sequence, payload)`` tuples.
"""

import socket
import struct
import time

from repro.common import codec as _codec
from repro.common import framing
from repro.common.errors import CheckpointError, ProtocolError
from repro.multicast.group import ALL_GROUPS


class WireError(Exception):
    """A peer sent something unframeable; the connection is unusable."""


def make_cut(cut_id, source, shard):
    """A consistent cut as it is multicast in both runtimes: a plain dict,
    because it must be able to cross the wire.

    A checkpoint marker (``shard`` false) is snapshotted by replica
    ``source`` only, which hands its state out, or, with ``source=None``,
    by every replica, which keeps it.  A shard-map update (``shard``
    true) is only the barrier: routing already switched at the sequencer
    and every replica holds the whole state, so neither the map nor the
    moved ranges travel.  The coordinator's waiter stays behind, found
    again by ``cut``.
    """
    return {"cut": cut_id, "source": source, "shard": shard}


_DELIVER_TAG = ord("d")
_RESPONSES_TAG = ord("r")

_BURST = struct.Struct(">BI")  # tag, message count
_ITEM = struct.Struct(">I")  # length of the ordered part
_ORDERED = struct.Struct(">qBH")  # s, body kind, destination count
_DELIVERED = struct.Struct(">IqBH")  # an item's head, as the decoder reads it
_RESPONSES = struct.Struct(">BI")  # tag, response count
_UID = struct.Struct(">qq")

_BODY_COMMAND = 0  # encoded command bytes, verbatim
_BODY_VALUE = 1  # one codec value: a cut dict


def ordered_part(sequence, destinations, payload):
    """A ``d`` item as every link of one multicast carries it: global
    sequence, body kind, destinations and the body — bytes go in
    verbatim, anything else as a codec value."""
    if type(payload) is bytes:
        kind, body = _BODY_COMMAND, payload
    else:
        kind, body = _BODY_VALUE, bytearray()
        _codec.encode_value(payload, body)
    count, group_ids = _codec.pack_destinations(destinations)
    return b"".join((_ORDERED.pack(sequence, kind, count), group_ids, body))


def deliver_frames(messages):
    """One link's ``d`` frames for a run of ordered parts, as a list of
    byte strings to write in order.

    As few frames as fit :attr:`FrameReader.SIZE` bytes of payload each
    (a message larger than that travels alone), so a replayed log suffix
    is never one frame of megabytes."""
    chunks = []
    limit = FrameReader.SIZE
    parts, size = [None], _BURST.size
    for ordered in messages:
        item = _ITEM.size + len(ordered)
        if size + item > limit and size > _BURST.size:
            _close_burst(parts, chunks)
            parts, size = [None], _BURST.size
        parts.append(_ITEM.pack(len(ordered)))
        parts.append(ordered)
        size += item
    _close_burst(parts, chunks)
    return chunks


def _close_burst(parts, chunks):
    parts[0] = _BURST.pack(_DELIVER_TAG, len(parts) // 2)
    payload = b"".join(parts)
    chunks.append(
        framing.HEADER.pack(
            framing.WIRE_MAGIC, len(payload), framing.crc32(payload)
        )
    )
    chunks.append(payload)


def deliver_frame(ordered):
    """The ``d`` frame of one message: :func:`deliver_frames`' one-message
    case."""
    return b"".join(deliver_frames([ordered]))


def _decode_deliver(payload):
    """A ``d`` payload in one pass: ``(s, dst, body)`` per message."""
    _tag, count = _BURST.unpack_from(payload)
    end = len(payload)
    offset = _BURST.size
    if count * _DELIVERED.size > end - offset:
        raise WireError(f"d frame of {end} bytes claims {count} messages")
    messages = []
    for _ in range(count):
        length, sequence, kind, destination_count = _DELIVERED.unpack_from(
            payload, offset
        )
        start = offset + _ITEM.size
        offset = start + length
        if length < _ORDERED.size or offset > end:
            raise WireError(f"d message of {length} bytes at {start} of {end}")
        destinations, at = _codec.unpack_destinations(
            payload, start + _ORDERED.size, destination_count
        )
        if at > offset:
            raise WireError(f"d message at {start} ends inside its destinations")
        if kind == _BODY_COMMAND:
            body = bytes(payload[at:offset])
        elif kind == _BODY_VALUE:
            body, at = _codec.decode_value(payload, at)
            if at != offset:
                raise WireError(f"d message ends at byte {at}, not {offset}")
        else:
            raise WireError(f"unknown d-message body kind {kind}")
        messages.append((sequence, destinations, body))
    if offset != end:
        raise WireError(f"d frame ends at byte {offset} of {end}")
    return {"t": "d", "msgs": messages}


def _encode_responses(responses):
    out = bytearray(_RESPONSES.pack(_RESPONSES_TAG, len(responses)))
    for uid, value, error in responses:
        out += _UID.pack(*uid)
        start = len(out)
        try:
            _codec.encode_answer(value, out)
        except ProtocolError as exc:
            # One answer the codec cannot carry must not cost the frame
            # (up to a batch of them) or the worker that is sending it.
            del out[start:]
            _codec.encode_answer(None, out)
            error = f"response not encodable: {exc}"
        _codec.encode_answer(error, out)
    return framing.encode_frame(framing.WIRE_MAGIC, out)


def _decode_responses(payload):
    if type(payload) is not bytes:
        payload = bytes(payload)
    _tag, count = _RESPONSES.unpack_from(payload)
    offset = _RESPONSES.size
    responses = []
    for _ in range(count):
        uid = _UID.unpack_from(payload, offset)
        value, offset = _codec.decode_answer(payload, offset + _UID.size)
        error, offset = _codec.decode_answer(payload, offset)
        responses.append((uid, value, error))
    if offset != len(payload):
        raise WireError(f"r frame ends at byte {offset} of {len(payload)}")
    return {"t": "r", "resps": tuple(responses)}


def encode_message(message):
    """One wire frame for a message dict."""
    kind = message["t"]
    if kind == "d":  # one ordered message: ``s``, ``dst``, ``b``
        return deliver_frame(
            ordered_part(message["s"], message["dst"], message["b"])
        )
    if kind == "r":
        return _encode_responses(message["resps"])
    return framing.encode_frame(framing.WIRE_MAGIC, _codec.encode(message))


def decode_payload(payload):
    """Decode a verified frame payload back into the message dict;
    :class:`WireError` when it contradicts its layout."""
    try:
        tag = payload[0]
        if tag == _DELIVER_TAG:
            return _decode_deliver(payload)
        if tag == _RESPONSES_TAG:
            return _decode_responses(payload)
        if tag == _codec.MAGIC:
            return _codec.decode(payload)
    except (
        struct.error, IndexError, UnicodeDecodeError, CheckpointError
    ) as exc:
        raise WireError(f"malformed payload: {exc}") from exc
    raise WireError(f"unknown payload kind 0x{tag:02x}")


def encode_destinations(destinations):
    """Destinations as codec-friendly wire data (`"ALL"` or sorted ids)."""
    if destinations == ALL_GROUPS:
        return ALL_GROUPS
    return tuple(sorted(destinations))


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
# Blocking-socket helpers (both ends of a link)
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
        self.error = None  # what ended the stream, once a pass met it

    def read(self):
        """Block until a frame is complete; return the messages of every
        complete frame received so far, in order.

        ``None`` on EOF/reset, mid-frame included; :class:`WireError` on
        a corrupt frame or a payload that contradicts its layout (a byte
        error on an established stream is fatal) — raised once the
        frames ahead of it have been returned.
        """
        while True:
            if self.error is not None:
                raise WireError(self.error)
            messages = self.take()
            if messages is None or messages:
                return messages

    def take(self):
        """One ``recv_into``: the messages of the frames it completed,
        ``None`` on EOF/reset.  The step for a caller serving several
        sockets: told this one is readable it never waits — a partial
        frame, or a non-blocking socket with nothing in it, yields ``[]``
        instead of parking it here — and a corrupt
        frame sets ``error`` in the pass that met it, behind the frames
        ahead of it."""
        try:
            count = self._sock.recv_into(self._view[self._end:])
        except BlockingIOError:
            return []  # a non-blocking socket with nothing to take yet
        except OSError:
            return None
        if not count:
            return None
        self._end += count
        messages = []
        self.error = self._parse(messages)
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
            try:
                messages.append(decode_payload(payload))
            except WireError as exc:
                return str(exc)
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
    It also has ``TCP_NODELAY`` set (the coordinator sets it on the
    sockets it accepts): with Nagle on, a worker's small ``r`` frame
    waits for the ACK of the one before it, which the coordinator's
    kernel delays by up to 40 ms unless a ``d`` frame happens to carry
    it.
    """
    deadline = time.monotonic() + deadline_seconds
    delay = base_delay
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=2.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2.0, 1.0)
