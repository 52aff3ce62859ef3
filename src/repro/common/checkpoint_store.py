"""Durable checkpoint store: per-replica chains on local stable storage.

The in-memory checkpoint chains of the runtimes (one full base plus deltas)
model the paper's recovery protocol, but a real replica must survive a
*process* restart: its recovery state has to live on local disk, written so
that a crash at any byte leaves something usable behind.  This module is
that storage layer.

Layout — one directory per replica::

    replica-3/
        seg-00000000.ckpt     length-prefixed, checksummed entry payload
        seg-00000001.ckpt
        MANIFEST              the chain: one checksummed line per entry

Each chain entry is serialised into its own **segment file**: a 20-byte
header (magic, payload length, CRC-32 of the payload) followed by the
payload in the :mod:`repro.common.codec` binary format — the only format
read back: a segment whose checksum holds but whose payload is anything
else is an invalid entry, never handed to a general deserialiser.  The
**manifest** names the chain in order — segment file, kind, sequence,
length and checksum per line, each line carrying its own CRC — and is the
single commit point: a persist cycle writes and fsyncs the
new segment first, then writes ``MANIFEST.tmp``, fsyncs it, and atomically
renames it over ``MANIFEST`` (fsyncing the directory).  The ordering gives
the crash guarantee the fault-injection suite sweeps for:

* a crash while writing a segment leaves a garbage file the manifest never
  references — reopening yields the previous chain;
* a crash while writing ``MANIFEST.tmp`` leaves the old ``MANIFEST``
  intact — reopening yields the previous chain;
* after the rename, the new chain is visible in full.

:meth:`CheckpointStore.load_chain` additionally verifies every checksum on
the way back in, so even externally torn files degrade to the longest valid
chain prefix instead of a crash or silent corruption.
"""

import json
import os

from repro.common import codec as _codec
from repro.common import framing
from repro.common.errors import CheckpointError

#: Segment framing (header layout + CRC) is shared with the TCP wire
#: protocol via :mod:`repro.common.framing`; only the magic differs.
_SEGMENT_MAGIC = framing.SEGMENT_MAGIC

_MANIFEST_NAME = "MANIFEST"
_MANIFEST_TMP = "MANIFEST.tmp"
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".ckpt"

_crc = framing.crc32


def _fsync_directory(path):
    """Flush a directory's entry table (best effort on platforms without it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


_MANIFEST_FIELDS = ("kind", "sequence", "segment", "length", "crc")


def _manifest_line(record):
    """One manifest entry as a self-checksummed JSON line."""
    body = json.dumps(
        {field: record[field] for field in _MANIFEST_FIELDS}, sort_keys=True
    )
    return f"{body}|{_crc(body.encode('utf-8')):08x}"


def _parse_manifest_line(line):
    """Parse one manifest line; return its record or ``None`` when torn."""
    line = line.rstrip("\n")
    if not line:
        return None
    body, separator, checksum = line.rpartition("|")
    if not separator:
        return None
    try:
        if int(checksum, 16) != _crc(body.encode("utf-8")):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    if not isinstance(record, dict) or set(record) != set(_MANIFEST_FIELDS):
        return None
    if record["kind"] not in ("full", "delta"):
        return None
    return record


class CheckpointStore:
    """One replica's checkpoint chain on disk, crash-safe at every byte.

    ``directory`` is created if missing.  ``opener`` replaces the builtin
    ``open`` for every *write* (segments, manifest tmp) — the fault-
    injection tests pass a wrapper that dies after N bytes, sweeping N
    across a whole persist cycle; reads always use the real ``open``.
    """

    def __init__(self, directory, opener=None):
        self.directory = str(directory)
        self._opener = opener if opener is not None else open
        os.makedirs(self.directory, exist_ok=True)
        self._records = self._read_manifest()
        self._next_file_id = self._scan_next_file_id()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_manifest(self):
        """Parse MANIFEST into records, stopping at the first torn line."""
        path = os.path.join(self.directory, _MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return []
        records = []
        for line in lines:
            record = _parse_manifest_line(line)
            if record is None:
                break  # torn tail: everything after it is unusable
            records.append(record)
        return records

    def _scan_next_file_id(self):
        highest = -1
        for name in os.listdir(self.directory):
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
                try:
                    highest = max(
                        highest,
                        int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]),
                    )
                except ValueError:
                    continue
        return highest + 1

    def _read_segment(self, record):
        """Load and verify one segment's payload; ``None`` when invalid."""
        path = os.path.join(self.directory, record["segment"])
        try:
            with open(path, "rb") as handle:
                header = handle.read(framing.HEADER_SIZE)
                parsed = framing.parse_header(header, _SEGMENT_MAGIC)
                if parsed is None:
                    return None
                length, crc = parsed
                if length != record["length"] or crc != record["crc"]:
                    return None
                # Read one extra byte so trailing garbage invalidates too.
                payload = handle.read(length + 1)
        except OSError:
            return None
        if not framing.payload_valid(payload, length, crc):
            return None
        try:
            return {
                "kind": record["kind"],
                "sequence": record["sequence"],
                "payload": _codec.decode(payload),
            }
        except Exception:
            return None

    def manifest(self):
        """The chain's metadata — ``(kind, sequence)`` per entry, no payloads."""
        return [(record["kind"], record["sequence"]) for record in self._records]

    def load_chain(self):
        """Reload the durable chain: the longest valid prefix on disk.

        Verifies every manifest line and every segment checksum; the chain
        is cut at the first invalid entry.  A prefix that does not start
        with a full base (the base segment itself is corrupt) is unusable
        and yields ``[]`` — recovery then falls back to a peer transfer.
        """
        chain = []
        for record in self._records:
            entry = self._read_segment(record)
            if entry is None:
                break
            chain.append(entry)
        if not chain or chain[0]["kind"] != "full":
            return []
        return chain

    def disk_bytes(self):
        """Payload bytes the manifest currently references (accounting)."""
        return sum(record["length"] for record in self._records)

    def segment_count(self):
        return len(self._records)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _write_file(self, name, data):
        """Write one file through the injected opener, durably."""
        path = os.path.join(self.directory, name)
        handle = self._opener(path, "wb")
        try:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        return path

    def _write_segment(self, entry):
        """Serialise one chain entry into a fresh segment file."""
        payload = _codec.encode(entry["payload"])
        name = f"{_SEGMENT_PREFIX}{self._next_file_id:08d}{_SEGMENT_SUFFIX}"
        self._next_file_id += 1
        self._write_file(name, framing.encode_frame(_SEGMENT_MAGIC, payload))
        return {
            "kind": entry["kind"],
            "sequence": entry["sequence"],
            "segment": name,
            "length": len(payload),
            "crc": _crc(payload),
        }

    def _commit_manifest(self, records):
        """Atomically replace MANIFEST with ``records`` (the commit point)."""
        text = "".join(_manifest_line(record) + "\n" for record in records)
        tmp_path = self._write_file(_MANIFEST_TMP, text.encode("utf-8"))
        os.replace(tmp_path, os.path.join(self.directory, _MANIFEST_NAME))
        _fsync_directory(self.directory)
        self._records = list(records)
        self._collect_garbage()

    def _collect_garbage(self):
        """Drop segment files the committed manifest no longer references."""
        referenced = {record["segment"] for record in self._records}
        for name in os.listdir(self.directory):
            if (
                name.startswith(_SEGMENT_PREFIX)
                and name.endswith(_SEGMENT_SUFFIX)
                and name not in referenced
            ):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def sync_chain(self, chain):
        """Make the durable chain match ``chain`` with the fewest writes.

        The longest common prefix (by kind and sequence) is kept — its
        segment files are reused untouched — and only the divergent suffix
        is written before one manifest commit.  Appending a delta writes
        one segment; a new full base rewrites everything and the manifest
        commit drops the old segments.  The manifest is committed only
        after every new segment is written and fsynced, so a crash
        anywhere in between leaves the previous chain intact.  A chain
        is one full base and the deltas taken since: anything else is a
        :class:`CheckpointError`, and nothing is written.
        """
        chain = list(chain)
        kinds = [entry["kind"] for entry in chain]
        if kinds and kinds != ["full"] + ["delta"] * (len(kinds) - 1):
            raise CheckpointError(f"not a full base and its deltas: {kinds}")
        if not chain:
            if self._records:
                self._commit_manifest([])
            return
        prefix = 0
        for record, entry in zip(self._records, chain):
            if (record["kind"], record["sequence"]) != (
                entry["kind"],
                entry["sequence"],
            ):
                break
            prefix += 1
        # A rebased chain diverges before the old tip: the shared prefix
        # survives, the rest is rewritten.
        records = list(self._records[:prefix])
        if prefix == len(chain) and prefix == len(self._records):
            return  # already in sync
        for entry in chain[prefix:]:
            records.append(self._write_segment(entry))
        self._commit_manifest(records)

    def clear(self):
        """Forget the durable chain (an empty manifest commit)."""
        self._commit_manifest([])

