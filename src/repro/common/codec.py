"""Compact binary codec for commands and checkpoint payloads.

The hot path serialises two kinds of values: the ``args`` of client
:class:`Command` objects crossing the wire (the command around them has a
fixed ``struct`` layout, see :func:`encode_command`), and checkpoint
payloads going into
:class:`~repro.common.checkpoint_store.CheckpointStore` segments.  Both are
built from a small closed vocabulary — ints (including arbitrary-precision
counters), bytes values, strings, dicts, lists/tuples of pairs, sets and
frozensets — which a tagged binary format encodes far more compactly than a
generic pickle, and which bulk ``struct`` fast paths encode in large
column-packed runs instead of per-item opcodes:

* a list of ``(int, bytes)`` pairs (B+-tree items, delta ``changes``) is
  packed as one key column plus one value blob;
* a list of ints (delta ``deletions``) is packed as one ``struct`` run.

Commands and their answers cross the wire through fast paths of their own
(:func:`encode_command` / :func:`decode_command`, :func:`encode_answer` /
:func:`decode_answer`) that write and read the generic encoding byte for
byte, for the shapes they carry most.

The one value either service answers with that is none of these,
:class:`~repro.fs.statinfo.Stat` (NetFS ``lstat``), has a fixed-layout tag of
its own.  The vocabulary is closed: a value of any other type raises
:class:`~repro.common.errors.ProtocolError` when it is encoded, and a tag
or leading byte no encoder writes raises
:class:`~repro.common.errors.CheckpointError` when it is decoded.  There is
no pickle behind either — bytes read from a replica connection or a store
directory are parsed, never executed.

Framing: every encoded value starts with the magic byte ``0xC3`` followed
by a format version.
"""

import struct
import threading

from repro.common.errors import CheckpointError, ProtocolError
from repro.core.command import Command
from repro.fs.statinfo import Stat
from repro.multicast.group import ALL_GROUPS


class Memo(dict):
    """``memo[key]`` is ``make(key)``, remembered for the first
    :data:`MEMO_ENTRIES` keys only: the caches on the wire path are fed
    by what peers send, and endless distinct names or keys must not grow
    them.  ``make`` raising leaves nothing behind.  A hit is a plain dict
    lookup; a miss takes a lock, so threads missing at once cannot push
    the memo past its bound."""

    __slots__ = ("_make", "_lock")

    def __init__(self, make):
        super().__init__()
        self._make = make
        self._lock = threading.Lock()

    def __missing__(self, key):
        value = self._make(key)
        with self._lock:
            if len(self) < MEMO_ENTRIES:
                self[key] = value
        return value


#: How many keys a :class:`Memo` remembers.
MEMO_ENTRIES = 512

#: First byte of every codec stream and of every encoded command.
MAGIC = 0xC3
_VERSION = 1
_HEADER = bytes((MAGIC, _VERSION))

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

# Value tags.  Single ASCII bytes keep the stream debuggable in a hexdump.
_T_NONE = ord("N")
_T_TRUE = ord("T")
_T_FALSE = ord("F")
_T_INT64 = ord("q")
_T_BIGINT = ord("I")
_T_FLOAT = ord("f")
_T_STR = ord("s")
_T_BYTES = ord("b")
_T_BYTEARRAY = ord("a")
_T_LIST = ord("l")
_T_TUPLE = ord("t")
_T_SET = ord("S")
_T_FROZENSET = ord("Z")
_T_DICT = ord("d")
#: ``fs.statinfo.Stat``: is_dir, size, mode, nlink, atime, mtime.
_T_STAT = ord("A")
_STAT = struct.Struct(">?qIIdd")
#: Bulk fast paths (see module docstring).
_T_INT_RUN = ord("R")
_T_PAIR_RUN = ord("K")


def _is_i64(value):
    return type(value) is int and _I64_MIN <= value <= _I64_MAX


#: Column widths tried in order for int runs: 1, 2, 4 or 8 signed bytes.
_WIDTHS = ((1, "b"), (2, "h"), (4, "i"), (8, "q"))


def _pack_ints(values):
    """Pack an int column at the narrowest width that fits every value."""
    lo, hi = min(values), max(values)
    for width, fmt in _WIDTHS:
        if -(1 << (8 * width - 1)) <= lo and hi < (1 << (8 * width - 1)):
            break
    return bytes((width,)) + struct.pack(f">{len(values)}{fmt}", *values)


def _unpack_ints(buf, offset, count):
    width = buf[offset]
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}[width]
    values = struct.unpack_from(f">{count}{fmt}", buf, offset + 1)
    return values, offset + 1 + width * count


def _int_run(values):
    """Column-pack a list of int64s, or ``None`` when ineligible."""
    if not values or not all(_is_i64(v) for v in values):
        return None
    return _pack_ints(values)


#: Value-column modes of a pair run.
_PAIRS_VARIED = 0    # per-pair length column + concatenated blobs
_PAIRS_UNIFORM = 1   # one shared length + concatenated blobs
_PAIRS_CONSTANT = 2  # every value equal: one length + one blob


def _pair_run(values):
    """Column-pack ``[(int64, bytes), ...]`` pairs, or ``None`` when ineligible.

    Keys become one packed int column at the narrowest width that fits.
    Values pick the cheapest of three modes: one shared blob when every
    value is equal (common with fixed fill values), one shared length when
    sizes are uniform, a length column otherwise.  This is the B+-tree
    ``items``/``changes`` shape, and where the codec's size advantage over
    pickle comes from.
    """
    if not values:
        return None
    keys = []
    blobs = []
    for pair in values:
        if type(pair) is not tuple or len(pair) != 2:
            return None
        key, blob = pair
        if not _is_i64(key) or type(blob) is not bytes:
            return None
        keys.append(key)
        blobs.append(blob)
    first = blobs[0]
    if all(blob == first for blob in blobs):
        column = bytes((_PAIRS_CONSTANT,)) + _U32.pack(len(first)) + first
    elif all(len(blob) == len(first) for blob in blobs):
        column = b"".join(
            (bytes((_PAIRS_UNIFORM,)), _U32.pack(len(first)), *blobs)
        )
    else:
        column = b"".join(
            (
                bytes((_PAIRS_VARIED,)),
                struct.pack(f">{len(blobs)}I", *(len(blob) for blob in blobs)),
                *blobs,
            )
        )
    return _pack_ints(keys) + column


def encode_value(value, out):
    """Append ``value``, tagged, to the bytearray ``out`` — no stream
    header: for layouts that embed codec values among fields of their own."""
    kind = type(value)
    if value is None:
        out.append(_T_NONE)
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_INT64)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
            out.append(_T_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif kind is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif kind is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif kind is bytes:
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif kind is bytearray:
        out.append(_T_BYTEARRAY)
        out += _U32.pack(len(value))
        out += value
    elif kind is list or kind is tuple:
        run = _int_run(value)
        if run is not None:
            out.append(_T_INT_RUN)
            out.append(_T_LIST if kind is list else _T_TUPLE)
            out += _U32.pack(len(value))
            out += run
            return
        run = _pair_run(value)
        if run is not None:
            out.append(_T_PAIR_RUN)
            out.append(_T_LIST if kind is list else _T_TUPLE)
            out += _U32.pack(len(value))
            out += run
            return
        out.append(_T_LIST if kind is list else _T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif kind is set or kind is frozenset:
        out.append(_T_SET if kind is set else _T_FROZENSET)
        out += _U32.pack(len(value))
        try:
            members = sorted(value)  # deterministic bytes when orderable
        except TypeError:
            members = list(value)
        for item in members:
            encode_value(item, out)
    elif kind is dict:
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            encode_value(key, out)
            encode_value(item, out)
    elif kind is Stat:
        try:
            fields = _STAT.pack(
                value.is_dir, value.size, value.mode, value.nlink,
                value.atime, value.mtime,
            )
        except struct.error as exc:
            raise ProtocolError(f"{value!r:.80}: {exc}") from None
        out.append(_T_STAT)
        out += fields
    else:
        raise ProtocolError(
            f"a {kind.__module__}.{kind.__qualname__} is outside the "
            "codec's vocabulary"
        )


def decode_value(buf, offset):
    """Invert :func:`encode_value` at ``offset``: ``(value, next offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT64:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_BIGINT:
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        raw = bytes(buf[offset:offset + length])
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES, _T_BYTEARRAY):
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        raw = bytes(buf[offset:offset + length])
        offset += length
        if tag == _T_STR:
            return raw.decode("utf-8"), offset
        if tag == _T_BYTES:
            return raw, offset
        return bytearray(raw), offset
    if tag == _T_INT_RUN:
        shape = buf[offset]
        (count,) = _U32.unpack_from(buf, offset + 1)
        offset += 5
        values, offset = _unpack_ints(buf, offset, count)
        values = list(values)
        return (values if shape == _T_LIST else tuple(values)), offset
    if tag == _T_PAIR_RUN:
        shape = buf[offset]
        (count,) = _U32.unpack_from(buf, offset + 1)
        offset += 5
        keys, offset = _unpack_ints(buf, offset, count)
        mode = buf[offset]
        offset += 1
        if mode == _PAIRS_CONSTANT:
            (length,) = _U32.unpack_from(buf, offset)
            offset += 4
            blob = bytes(buf[offset:offset + length])
            offset += length
            blobs = [blob] * count
        elif mode == _PAIRS_UNIFORM:
            (length,) = _U32.unpack_from(buf, offset)
            offset += 4
            blobs = []
            for _ in range(count):
                blobs.append(bytes(buf[offset:offset + length]))
                offset += length
        else:
            lengths = struct.unpack_from(f">{count}I", buf, offset)
            offset += 4 * count
            blobs = []
            for length in lengths:
                blobs.append(bytes(buf[offset:offset + length]))
                offset += length
        pairs = list(zip(keys, blobs))
        return (pairs if shape == _T_LIST else tuple(pairs)), offset
    if tag in (_T_LIST, _T_TUPLE):
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode_value(buf, offset)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag in (_T_SET, _T_FROZENSET):
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode_value(buf, offset)
            items.append(item)
        return (set(items) if tag == _T_SET else frozenset(items)), offset
    if tag == _T_DICT:
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        mapping = {}
        for _ in range(count):
            key, offset = decode_value(buf, offset)
            value, offset = decode_value(buf, offset)
            mapping[key] = value
        return mapping, offset
    if tag == _T_STAT:
        return Stat(*_STAT.unpack_from(buf, offset)), offset + _STAT.size
    raise CheckpointError(f"unknown codec tag 0x{tag:02x} at offset {offset - 1}")


def encode(value):
    """Serialise ``value`` into the codec's binary format."""
    out = bytearray(_HEADER)
    encode_value(value, out)
    return bytes(out)


def decode(data):
    """Deserialise bytes produced by :func:`encode`; anything that does
    not start with its header is a :class:`CheckpointError`."""
    if len(data) < 2 or data[0] != MAGIC:
        raise CheckpointError("not a codec stream")
    if data[1] != _VERSION:
        raise CheckpointError(f"unsupported codec version {data[1]}")
    value, offset = decode_value(memoryview(data), 2)
    if offset != len(data):
        raise CheckpointError(
            f"trailing garbage after codec stream ({len(data) - offset} bytes)"
        )
    return value


# ----------------------------------------------------------------------
# Command wire format (byte layouts and limits: the table in
# :mod:`repro.runtime.transport.wire`)
# ----------------------------------------------------------------------
#: Destination counts standing for "every group" and "not routed yet".
_DESTINATIONS_ALL = 0xFFFF
_DESTINATIONS_NONE = 0xFFFE
MAX_DESTINATIONS = 0xFFFD


def _pack_destinations(destinations):
    if destinations is None:
        return _DESTINATIONS_NONE, b""
    if destinations == ALL_GROUPS:
        return _DESTINATIONS_ALL, b""
    group_ids = sorted(destinations)
    count = len(group_ids)
    if count > MAX_DESTINATIONS:
        raise ProtocolError(
            f"{count} destination groups: the wire carries {MAX_DESTINATIONS}"
        )
    try:
        return count, _GROUP_IDS[count].pack(*group_ids)
    except struct.error as exc:
        raise ProtocolError(f"group id in {group_ids!r:.80}: {exc}") from None


def _group_ids_struct(count):
    return struct.Struct(">%dI" % count)


#: ``count`` -> the ``struct`` of that many group ids.
_GROUP_IDS = Memo(_group_ids_struct)
#: destination set -> its packed field: a multicast packs its
#: destinations twice, in the command and in the ``d`` frame around it.
_PACKED_DESTINATIONS = Memo(_pack_destinations)


def pack_destinations(destinations):
    """``(count, packed group ids)``: a fixed layout's destination field.

    ``None`` and :data:`~repro.multicast.group.ALL_GROUPS` are counts of
    their own with no ids behind them; any other iterable travels sorted
    (frozensets have no stable iteration order) as unsigned 32-bit ids.
    """
    try:
        return _PACKED_DESTINATIONS[destinations]
    except TypeError:  # unhashable (a set): packed, not remembered
        return _pack_destinations(destinations)


def unpack_destinations(buf, offset, count):
    """Invert :func:`pack_destinations`: ``(destinations, next offset)``,
    the group ids as a sorted tuple."""
    if count == _DESTINATIONS_ALL:
        return ALL_GROUPS, offset
    if count == _DESTINATIONS_NONE:
        return None, offset
    return _GROUP_IDS[count].unpack_from(buf, offset), offset + 4 * count


#: Second byte of a command, where a codec stream has its version:
#: :func:`decode` and :func:`decode_command` reject each other's bytes.
_COMMAND_LAYOUT = 2

#: magic, layout, uid (client id, sequence), ``size_bytes``,
#: ``submitted_at``, destination count, byte length of the name.  Behind
#: it: the group ids, the name in UTF-8, then ``args`` — the one
#: open-ended field — as a tagged codec value.
_COMMAND = struct.Struct(">BBqqIdHH")


def _str_item(key):
    raw = key.encode("utf-8")
    return _TAGGED_LENGTH.pack(_T_STR, len(raw)) + raw


def _utf8(raw):
    return str(raw, "utf-8")


#: The strings every command repeats — its name and its ``args`` keys —
#: in both directions: name -> UTF-8, key -> tagged codec value, and the
#: raw UTF-8 of either -> the str.
_NAMES_OUT = Memo(lambda name: name.encode("utf-8"))
_KEYS_OUT = Memo(_str_item)
_STRS_IN = Memo(_utf8)

_TAGGED_LENGTH = struct.Struct(">BI")  # str / bytes / dict: tag, length
_TAGGED_I64 = struct.Struct(">Bq")
#: The head of a two-item tuple: a batch call ``(name, args)`` or a
#: batch answer's ``(value, error)``.
_PAIR_HEAD = _TAGGED_LENGTH.pack(_T_TUPLE, 2)


def _encode_args(args, out):
    """``encode_value(args, out)``, byte for byte, with a fast path for
    what commands carry: a dict of str keys to int64 or bytes values."""
    if type(args) is not dict:
        encode_value(args, out)
        return
    out += _TAGGED_LENGTH.pack(_T_DICT, len(args))
    for key, value in args.items():
        if type(key) is str:
            out += _KEYS_OUT[key]
        else:
            encode_value(key, out)
        kind = type(value)
        if kind is int and _I64_MIN <= value <= _I64_MAX:
            out += _TAGGED_I64.pack(_T_INT64, value)
        elif kind is bytes:
            out += _TAGGED_LENGTH.pack(_T_BYTES, len(value))
            out += value
        elif kind is list:
            _encode_calls(value, out)
        else:
            encode_value(value, out)


def _is_call(item):
    return type(item) is tuple and len(item) == 2 and type(item[0]) is str


def _encode_calls(calls, out):
    """``encode_value(calls, out)``, byte for byte, with a fast path for
    a batch command's calls: a list of ``(name, args)`` tuples, each
    encoded like a command's name and args."""
    if not calls or not _is_call(calls[0]):
        encode_value(calls, out)  # perhaps an int or pair run
        return
    out += _TAGGED_LENGTH.pack(_T_LIST, len(calls))
    for call in calls:
        if _is_call(call):
            out += _PAIR_HEAD
            out += _KEYS_OUT[call[0]]
            _encode_args(call[1], out)
        else:
            encode_value(call, out)


def _decode_calls(data, offset):
    """``decode_value(data, offset)`` of a list, with
    :func:`_encode_calls`' fast path; ``data`` is ``bytes``."""
    (count,) = _U32.unpack_from(data, offset + 1)
    offset += 5
    calls = []
    for _ in range(count):
        if data.startswith(_PAIR_HEAD, offset) and data[offset + 5] == _T_STR:
            (length,) = _U32.unpack_from(data, offset + 6)
            offset += 10
            name = _STRS_IN[data[offset:offset + length]]
            args, offset = _decode_args(data, offset + length)
            calls.append((name, args))
        else:
            item, offset = decode_value(data, offset)
            calls.append(item)
    return calls, offset


def _decode_args(data, offset):
    """``decode_value(data, offset)`` with :func:`_encode_args`'s fast
    path; ``data`` is ``bytes``."""
    if data[offset] != _T_DICT:
        return decode_value(data, offset)
    (count,) = _U32.unpack_from(data, offset + 1)
    offset += 5
    args = {}
    for _ in range(count):
        if data[offset] == _T_STR:
            (length,) = _U32.unpack_from(data, offset + 1)
            offset += 5
            key = _STRS_IN[data[offset:offset + length]]
            offset += length
        else:
            key, offset = decode_value(data, offset)
        tag = data[offset]
        if tag == _T_INT64:
            args[key] = _I64.unpack_from(data, offset + 1)[0]
            offset += 9
        elif tag == _T_BYTES:
            (length,) = _U32.unpack_from(data, offset + 1)
            offset += 5
            args[key] = data[offset:offset + length]
            offset += length
        elif tag == _T_LIST:
            args[key], offset = _decode_calls(data, offset)
        else:
            args[key], offset = decode_value(data, offset)
    return args, offset


def _encode_plain(item, out):
    """Append ``None``, bytes or a str as ``encode_value`` does; False,
    with nothing appended, for anything else."""
    if item is None:
        out.append(_T_NONE)
    elif type(item) is bytes:
        out += _TAGGED_LENGTH.pack(_T_BYTES, len(item))
        out += item
    elif type(item) is str:
        raw = item.encode("utf-8")
        out += _TAGGED_LENGTH.pack(_T_STR, len(raw))
        out += raw
    else:
        return False
    return True


def encode_answer(value, out):
    """``encode_value(value, out)``, byte for byte, with a fast path for
    what a command answers: ``None``, bytes or a str, and a batch's list
    of ``(value, error)`` pairs of those.  No such list is an int or pair
    run; any other shape goes to the generic codec."""
    if _encode_plain(value, out):
        return
    if type(value) is list:
        start = len(out)
        out += _TAGGED_LENGTH.pack(_T_LIST, len(value))
        for pair in value:
            if type(pair) is not tuple or len(pair) != 2:
                break
            out += _PAIR_HEAD
            if not (_encode_plain(pair[0], out) and _encode_plain(pair[1], out)):
                break
        else:
            return
        del out[start:]
    encode_value(value, out)


def _decode_plain(data, offset):
    """``decode_value(data, offset)`` with :func:`_encode_plain`'s fast
    path; ``data`` is ``bytes``."""
    tag = data[offset]
    if tag == _T_NONE:
        return None, offset + 1
    if tag == _T_BYTES or tag == _T_STR:
        (length,) = _U32.unpack_from(data, offset + 1)
        offset += 5
        raw = data[offset:offset + length]
        return (raw if tag == _T_BYTES else str(raw, "utf-8")), offset + length
    return decode_value(data, offset)


def decode_answer(data, offset):
    """``decode_value(data, offset)`` with :func:`encode_answer`'s fast
    path; ``data`` is ``bytes``."""
    if data[offset] != _T_LIST:
        return _decode_plain(data, offset)
    (count,) = _U32.unpack_from(data, offset + 1)
    offset += 5
    answers = []
    for _ in range(count):
        if data.startswith(_PAIR_HEAD, offset):
            value, offset = _decode_plain(data, offset + 5)
            error, offset = _decode_plain(data, offset)
            answers.append((value, error))
        else:
            item, offset = decode_value(data, offset)
            answers.append(item)
    return answers, offset


def encode_command(command):
    """Encode a :class:`~repro.core.command.Command` for the wire.

    A fixed layout (:data:`_COMMAND`), not a codec stream.  A field past
    its width — a uid component outside int64, a group id or
    ``size_bytes`` outside 32 unsigned bits, a name over 65535 bytes —
    raises :class:`~repro.common.errors.ProtocolError`; nothing wraps.
    """
    count, group_ids = pack_destinations(command.destinations)
    name = _NAMES_OUT[command.name]
    try:
        out = bytearray(
            _COMMAND.pack(
                MAGIC, _COMMAND_LAYOUT, *command.uid, command.size_bytes,
                command.submitted_at, count, len(name),
            )
        )
    except struct.error as exc:
        raise ProtocolError(
            f"command {command.uid!r} {command.name!r:.40}: {exc}"
        ) from None
    out += group_ids
    out += name
    _encode_args(command.args, out)
    return bytes(out)


def decode_command(data):
    """Decode bytes from :func:`encode_command` back into a ``Command``;
    :class:`~repro.common.errors.CheckpointError` for anything else (a
    short header, a count or length past the data, bytes left over)."""
    if type(data) is not bytes:
        data = bytes(data)
    try:
        (
            magic, layout, client_id, sequence, size_bytes, submitted_at,
            count, name_length,
        ) = _COMMAND.unpack_from(data)
        if magic != MAGIC or layout != _COMMAND_LAYOUT:
            raise CheckpointError("not an encoded command")
        destinations, offset = unpack_destinations(data, _COMMAND.size, count)
        if type(destinations) is tuple:
            destinations = frozenset(destinations)
        name = _STRS_IN[data[offset:offset + name_length]]
        args, end = _decode_args(data, offset + name_length)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"malformed command: {exc}") from exc
    if end != len(data):
        raise CheckpointError(f"command ends at byte {end} of {len(data)}")
    return Command(
        (client_id, sequence), name, args, size_bytes, destinations,
        submitted_at,
    )
