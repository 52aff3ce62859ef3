"""Incremental-persist guarantees of the durable checkpoint store.

ISSUE 6's persist-cycle audit, pinned as regression tests:

* appending a delta to a durable chain writes **only** the new segment and
  the manifest — the inodes and mtimes of every already-persisted segment
  are untouched (no re-serialisation, no re-fsync of the unchanged prefix);
* a new full base replaces the chain: the old segments leave the disk
  with the manifest commit;
* segments are smaller than the same payload pickled (``pickle`` is the
  yardstick here, not a format the store reads:
  ``tests/unit/test_hostile_bytes.py``).
"""

import os
import pickle

from repro.common import codec
from repro.common.checkpoint_store import CheckpointStore


def _entry(kind, sequence, payload):
    return {"kind": kind, "sequence": sequence, "payload": payload}


def _segment_stats(store):
    """``{segment name: (inode, mtime_ns, size)}`` for the committed chain."""
    stats = {}
    for record in store._records:
        info = os.stat(os.path.join(store.directory, record["segment"]))
        stats[record["segment"]] = (info.st_ino, info.st_mtime_ns, info.st_size)
    return stats


class TestIncrementalPersist:
    def test_delta_append_leaves_old_segments_untouched(self, tmp_path):
        store = CheckpointStore(tmp_path / "replica-0")
        chain = [_entry("full", 10, {"tree": {"order": 4, "items": [(1, b"a")]},
                                     "commands_executed": 1})]
        store.sync_chain(chain)
        before = _segment_stats(store)
        assert len(before) == 1

        for sequence in (20, 30, 40):
            chain = [*chain, _entry("delta", sequence,
                                    {"order": 4, "changes": [(sequence, b"v")],
                                     "deletions": [], "commands_executed": sequence})]
            store.sync_chain(chain)
            after = _segment_stats(store)
            # Every previously-committed segment is bit-for-bit the same
            # file: same inode, same mtime, same size.  Only one new
            # segment appears per delta append.
            for name, stat in before.items():
                assert after[name] == stat, f"segment {name} was rewritten"
            assert len(after) == len(before) + 1
            before = after

    def test_noop_sync_writes_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path / "replica-0")
        chain = [
            _entry("full", 5, {"a": 1}),
            _entry("delta", 9, {"b": 2}),
        ]
        store.sync_chain(chain)
        manifest_path = os.path.join(store.directory, "MANIFEST")
        before = _segment_stats(store)
        manifest_before = os.stat(manifest_path).st_mtime_ns
        store.sync_chain(chain)  # identical chain: nothing may be written
        assert _segment_stats(store) == before
        assert os.stat(manifest_path).st_mtime_ns == manifest_before

    def test_new_base_drops_every_old_segment(self, tmp_path):
        store = CheckpointStore(tmp_path / "replica-0")
        chain = [_entry("full", 0, {"tree": {"order": 4, "items": []},
                                    "commands_executed": 0})]
        for sequence in (1, 2, 3):
            chain = [*chain, _entry("delta", sequence,
                                    {"order": 4, "changes": [(sequence, b"x")],
                                     "deletions": [],
                                     "commands_executed": sequence})]
        store.sync_chain(chain)
        old = set(_segment_stats(store))
        assert len(old) == 4
        store.sync_chain([_entry("full", 4, {"tree": {"order": 4, "items": []},
                                             "commands_executed": 4})])
        after = _segment_stats(store)
        assert len(after) == 1 and not old & set(after)
        on_disk = {n for n in os.listdir(store.directory) if n.startswith("seg-")}
        assert on_disk == set(after)

    def test_reopened_store_appends_without_rewriting(self, tmp_path):
        store = CheckpointStore(tmp_path / "replica-0")
        chain = [_entry("full", 1, {"n": 1}), _entry("delta", 2, {"n": 2})]
        store.sync_chain(chain)
        before = _segment_stats(store)
        reopened = CheckpointStore(tmp_path / "replica-0")
        reopened.sync_chain([*chain, _entry("delta", 3, {"n": 3})])
        after = _segment_stats(reopened)
        for name, stat in before.items():
            assert after[name] == stat
        assert len(after) == 3


class TestSegmentCodec:
    def test_binary_segments_are_smaller(self, tmp_path):
        items = [(key, b"\x00" * 8) for key in range(1000)]
        payload = {"tree": {"order": 64, "items": items},
                   "commands_executed": 1000}
        store = CheckpointStore(tmp_path / "binary")
        store.sync_chain([_entry("full", 1, payload)])
        pickled = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert store.disk_bytes() < len(pickled)
        assert store.load_chain() == [_entry("full", 1, payload)]

    def test_encode_decode_symmetry_for_store_payloads(self):
        payload = {"tree": {"order": 64, "items": [(k, bytes([k % 251]))
                                                   for k in range(100)]},
                   "commands_executed": 2**70}
        assert codec.decode(codec.encode(payload)) == payload
