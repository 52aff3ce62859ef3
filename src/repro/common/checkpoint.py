"""Checkpoint scheduling policy of the live runtimes' control plane.

The paper's replica fault model (section IV) pairs checkpoint transfer with
multicast log-suffix replay, but the replay log grows without bound unless
checkpoints are taken — and the log truncated — periodically.  The threaded
and process runtimes share one control plane that implements this policy:

* take a marker checkpoint every ``every_messages`` ordered messages;
* after every periodic checkpoint, truncate the ordered-message log up to
  the minimum installed-checkpoint watermark across all replicas;
* a crashed replica pins the log at its last installed watermark only while
  its replay lag stays within ``max_replay_lag`` messages — past that
  horizon the replica is marked as requiring a full state transfer and the
  log is truncated without it.

Checkpoints come in two kinds.  A **full** checkpoint serialises the whole
service state; a **delta** checkpoint serialises only the keys/inodes dirtied
since the previous checkpoint, chained off the last full base.  The
``full_every`` knob controls the cadence: every ``full_every``-th periodic
checkpoint is full and the ones between are deltas, so a chain holds at most
``full_every - 1`` deltas before the next full snapshot resets it.  Restore
applies base + delta chain in order; recovery transfers only the chain
suffix the joiner is missing.
"""

from repro.common.errors import CheckpointError, ConfigurationError


class CheckpointPolicy:
    """When to take periodic checkpoints and how long to retain the log.

    ``every_messages``
        Take a checkpoint once this many messages have been ordered since
        the previous one.
    ``max_replay_lag``
        The replayable horizon of a *crashed* replica, in ordered messages
        behind the latest sequence number.  While a crashed replica is
        within the horizon its watermark pins log truncation, so it can
        later recover by replaying the suffix after its own last
        checkpoint.  Beyond the horizon it stops pinning the log and must
        recover via full state transfer from a live peer.  ``None`` pins
        the log indefinitely.
    ``full_every``
        Delta-chain cadence: every ``full_every``-th periodic checkpoint is
        a full snapshot and the ones between are deltas, so at most
        ``full_every - 1`` deltas chain off one base.  ``1`` (the default)
        disables deltas — every checkpoint is full.  ``None`` is treated as
        ``1``.
    ``compact_after``
        Delta-compaction trigger: once a chain holds this many deltas, the
        scheduler merges them into a single delta (:func:`compact_chain`),
        so restores and chain-suffix transfers apply one merged delta
        instead of the whole run.  Compaction drops the chain's
        intermediate cuts — a joiner checkpointed at a merged-away cut can
        no longer take a suffix and falls back to a full transfer — which
        is the storage-vs-granularity trade the knob expresses.  Must be
        ``>= 2`` (compacting a single delta is a no-op); ``None`` (the
        default) disables compaction.
    """

    def __init__(self, every_messages, max_replay_lag=None, full_every=1,
                 compact_after=None):
        if every_messages is None or every_messages < 1:
            raise ConfigurationError("every_messages must be >= 1")
        if max_replay_lag is not None and max_replay_lag < 0:
            raise ConfigurationError("max_replay_lag must be >= 0 (or None)")
        if full_every is None:
            full_every = 1
        if not isinstance(full_every, int) or isinstance(full_every, bool):
            raise ConfigurationError("full_every must be an int >= 1 (or None)")
        if full_every < 1:
            raise ConfigurationError("full_every must be an int >= 1 (or None)")
        if compact_after is not None:
            if not isinstance(compact_after, int) or isinstance(compact_after, bool):
                raise ConfigurationError("compact_after must be an int >= 2 (or None)")
            if compact_after < 2:
                raise ConfigurationError("compact_after must be an int >= 2 (or None)")
        self.compact_after = compact_after
        self.every_messages = every_messages
        self.max_replay_lag = max_replay_lag
        self.full_every = full_every

    def due(self, messages_since):
        """True once ``every_messages`` messages were ordered since the last
        checkpoint."""
        return messages_since >= self.every_messages

    def replayable(self, lag):
        """True when a crashed replica ``lag`` messages behind may still replay."""
        return self.max_replay_lag is None or lag <= self.max_replay_lag

    def take_full(self, deltas_since_full):
        """True when the next periodic checkpoint must be a full snapshot.

        ``deltas_since_full`` is the number of deltas currently chained off
        the replica's last full base (0 right after a full).  With
        ``full_every=1`` every checkpoint is full; with ``full_every=N`` the
        chain accepts up to ``N - 1`` deltas before the next full.
        """
        return self.full_every <= 1 or deltas_since_full >= self.full_every - 1

    def compact_due(self, delta_count):
        """True when a chain holding ``delta_count`` deltas should be compacted."""
        return self.compact_after is not None and delta_count >= self.compact_after

    def __repr__(self):
        return (
            f"CheckpointPolicy(every_messages={self.every_messages}, "
            f"max_replay_lag={self.max_replay_lag}, "
            f"full_every={self.full_every}, "
            f"compact_after={self.compact_after})"
        )


def restore_chain(service, chain):
    """Restore ``service`` from a checkpoint chain: one full base plus deltas.

    ``chain`` is a sequence of entries shaped ``{"kind": "full"|"delta",
    "payload": ...}`` (extra keys — sequence numbers, sizes — are ignored).
    The first entry must be a full checkpoint; every later entry must be a
    delta, applied in order.  Returns the service.

    Malformed chains — empty, delta-first, or holding more than one full
    base — raise :class:`~repro.common.errors.CheckpointError` *before* the
    service is touched, so a caller negotiating recovery can fall back to
    another path with its service state intact.
    """
    _validate_chain(chain)
    first, *rest = chain
    service.restore(first["payload"])
    for entry in rest:
        service.apply_delta(entry["payload"])
    return service


def _validate_chain(chain):
    """Reject chains :func:`restore_chain`/:func:`compact_chain` cannot use."""
    if not chain:
        raise CheckpointError("checkpoint chain is empty")
    if chain[0]["kind"] != "full":
        raise CheckpointError("checkpoint chain must start with a full base")
    for entry in chain[1:]:
        if entry["kind"] != "delta":
            raise CheckpointError("checkpoint chain may hold one full base only")


def merge_deltas(older, newer):
    """Merge two *adjacent* delta checkpoints into one equivalent delta.

    ``older`` and ``newer`` must come from consecutive cuts of the same
    chain.  The merge is last-writer-wins on keys (B+-tree deltas) and
    inode numbers (file-system deltas), with deletions folded: a key
    written in ``older`` and deleted in ``newer`` ends up deleted, one
    deleted and then recreated ends up written.  Applying the result to a
    base matching ``older``'s mark produces exactly the state of applying
    ``older`` then ``newer``.

    Dispatches on the payload shape the services produce: a NetFS service
    delta (``{"fs": ..., "commands_executed": ...}``), a raw file-system
    delta (``{"changed", "removed", ...}``), or a tree/key-value delta
    (``{"changes", "deletions", ...}``).  Mismatched or unrecognised
    shapes raise :class:`~repro.common.errors.CheckpointError`.
    """
    if not isinstance(older, dict) or not isinstance(newer, dict):
        raise CheckpointError("delta payloads must be dicts")
    # Imported lazily: the services import this module at load time.
    from repro.btree import BPlusTree
    from repro.fs import MemoryFileSystem
    from repro.services.kvstore import KeyValueStoreServer
    from repro.services.netfs import NetFSServer

    if "fs" in older and "fs" in newer:
        return NetFSServer.merge_deltas(older, newer)
    if "changed" in older and "changed" in newer:
        return MemoryFileSystem.merge_deltas(older, newer)
    if "changes" in older and "changes" in newer:
        if "commands_executed" in newer:
            return KeyValueStoreServer.merge_deltas(older, newer)
        return BPlusTree.merge_deltas(older, newer)
    raise CheckpointError(
        "cannot merge deltas of mismatched or unrecognised shapes: "
        f"{sorted(older)} vs {sorted(newer)}"
    )


def compact_chain(chain):
    """Collapse a chain's run of deltas into one merged delta.

    Returns a new chain (the input is never mutated): the same full base
    followed by at most one delta carrying the merged changes, stamped with
    the *last* delta's metadata (sequence and any extra keys) so the chain
    still names its tip cut.  A chain with one delta or fewer is returned
    as a shallow copy.  Malformed chains raise
    :class:`~repro.common.errors.CheckpointError`.
    """
    entries = list(chain)
    _validate_chain(entries)
    if len(entries) <= 2:
        return entries
    merged = entries[1]["payload"]
    for entry in entries[2:]:
        merged = merge_deltas(merged, entry["payload"])
    return [entries[0], {**entries[-1], "payload": merged}]


def estimate_checkpoint_size(state, default=4096):
    """Estimate the wire size of a checkpoint, for transfer-time accounting.

    Walks the plain containers produced by the services' ``checkpoint()``
    and ``delta_checkpoint()`` methods.  Strings and byte strings are
    charged their length plus a header; dicts, lists, tuples, sets and
    frozensets are charged a container header plus their contents; integers
    are charged their byte width (at least 8, so small ints and floats cost
    the same as before); unknown leaf types are charged a flat 8 bytes.
    When there is no materialised state (``execute_state=False``
    deployments), ``default`` models the paper's small-application
    checkpoint.
    """
    if state is None:
        return default

    def walk(value):
        if isinstance(value, (bytes, bytearray, str)):
            return len(value) + 8
        if isinstance(value, dict):
            return 16 + sum(walk(k) + walk(v) for k, v in value.items())
        if isinstance(value, (list, tuple, set, frozenset)):
            return 16 + sum(walk(item) for item in value)
        if isinstance(value, int) and not isinstance(value, bool):
            return max(8, (value.bit_length() + 7) // 8)
        return 8

    return walk(state)
