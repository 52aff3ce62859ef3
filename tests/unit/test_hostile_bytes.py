"""Guard: bytes from a socket or a store directory are parsed, never executed.

A checksum says a payload arrived as it was written, not who wrote it.
The codec's vocabulary is closed and nothing under ``src/repro`` imports
``pickle``, so a CRC-valid segment or frame that *is* a pickle — bare, or
wrapped in the tag an embedded pickle once had — is a malformed entry
like any other: the chain is cut there, the connection ends there, and
the pickle's ``__reduce__`` never runs.  ``pickle`` is imported here to
build the attack, and to show the attack works on a reader that trusts it.
"""

import os
import pickle
import re
import socket
import struct

import pytest

import repro
from repro.common import codec, framing
from repro.common.checkpoint_store import CheckpointStore
from repro.common.errors import CheckpointError
from repro.runtime.transport import wire


class _MakesADirectory:
    """Unpickling an instance calls ``os.mkdir(path)``: the flag."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _tagged(raw):
    """``raw`` behind the tag and length an embedded pickle used to have."""
    return b"P" + struct.pack(">I", len(raw)) + raw


def _splice(encoded, placeholder, replacement):
    """Swap the codec value ``placeholder`` (bytes) inside ``encoded``."""
    needle = bytearray()
    codec.encode_value(placeholder, needle)
    assert encoded.count(needle) == 1
    return encoded.replace(needle, replacement)


def _segment_payload(how, raw):
    """A segment payload carrying the pickle ``raw``: ``"bare"`` (first
    byte ``0x80``, a pickle opcode) or ``"tagged"``, as one embedded value
    under tag ``P`` of an otherwise well-formed stream."""
    if how == "bare":
        return raw
    return _splice(codec.encode({"state": b"@"}), b"@", _tagged(raw))


def _frame_payload(kind, how, raw):
    """The same two carriers inside an ``r`` or a ``restore`` frame."""
    if how == "bare":
        return raw
    if kind == "r":
        message = {"t": "r", "resps": (((1, 2), b"@", None),)}
    else:
        message = {
            "t": "restore", "mode": "full", "sequence": 3, "state": b"@",
            "entries": (),
        }
    payload = wire.encode_message(message)[framing.HEADER_SIZE:]
    return _splice(payload, b"@", _tagged(raw))


@pytest.fixture
def attack(tmp_path):
    """``(raw pickle, fired)``; checked to fire on a reader that unpickles."""
    flag = str(tmp_path / "unpickled")
    raw = pickle.dumps(_MakesADirectory(flag), protocol=pickle.HIGHEST_PROTOCOL)
    assert raw[0] == 0x80
    pickle.loads(raw)
    assert os.path.isdir(flag)
    os.rmdir(flag)
    return raw, lambda: os.path.exists(flag)


@pytest.mark.parametrize("how", ["bare", "tagged"])
def test_a_pickled_segment_cuts_the_chain_and_never_runs(tmp_path, attack, how):
    raw, fired = attack
    entries = [
        {"kind": "full", "sequence": 1, "payload": {"a": [1, 2, 3]}},
        {"kind": "delta", "sequence": 2, "payload": {"changes": [(9, b"z")]}},
        {"kind": "delta", "sequence": 3, "payload": {"changes": [(9, b"y")]}},
    ]
    directory = tmp_path / "replica-0"
    store = CheckpointStore(directory)
    store.sync_chain(entries)
    # Rewrite the middle segment as its owner would have: valid header,
    # valid CRC, and a manifest line that agrees with both.
    payload = _segment_payload(how, raw)
    record = store._records[1]
    with open(os.path.join(store.directory, record["segment"]), "wb") as handle:
        handle.write(framing.encode_frame(framing.SEGMENT_MAGIC, payload))
    record["length"] = len(payload)
    record["crc"] = framing.crc32(payload)
    store._commit_manifest(store._records)

    assert CheckpointStore(directory).load_chain() == entries[:1]
    with pytest.raises(CheckpointError):
        codec.decode(payload)
    assert not fired()


@pytest.mark.parametrize("how", ["bare", "tagged"])
@pytest.mark.parametrize("kind", ["r", "restore"])
def test_a_pickled_frame_is_a_wire_error_and_never_runs(attack, kind, how):
    raw, fired = attack
    good = wire.encode_message({"t": "start"})
    hostile = framing.encode_frame(
        framing.WIRE_MAGIC, _frame_payload(kind, how, raw)
    )
    left, right = socket.socketpair()
    try:
        left.sendall(good + hostile)
        reader = wire.FrameReader(right)
        assert reader.read() == [{"t": "start"}]  # the frames ahead of it
        with pytest.raises(wire.WireError):
            reader.read()
    finally:
        left.close()
        right.close()
    assert not fired()


#: An import of pickle, or a call through it (prose may still say what
#: the codec is not).
_PICKLE = re.compile(
    r"^\s*import\s+(?:[\w.]+\s*,\s*)*c?pickle\b"
    r"|^\s*from\s+c?pickle\s+import\b"
    r"|\bc?pickle\s*\.\s*\w+\s*\("
)


def test_nothing_under_src_imports_or_calls_pickle():
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(list(repro.__path__)[0]):
        for name in filenames:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, 1):
                    if _PICKLE.search(line):
                        offenders.append(f"{path}:{line_number}: {line.strip()}")
    assert not offenders, "pickle used under src/repro:\n" + "\n".join(offenders)
