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
suffix the joiner is missing.  Taking a checkpoint is the snapshot and its
durable write, nothing more: a chain is never measured or merged, and
``full_every`` is the one bound on its length.
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
    """

    def __init__(self, every_messages, max_replay_lag=None, full_every=1):
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

    def __repr__(self):
        return (
            f"CheckpointPolicy(every_messages={self.every_messages}, "
            f"max_replay_lag={self.max_replay_lag}, "
            f"full_every={self.full_every})"
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
    if not chain:
        raise CheckpointError("checkpoint chain is empty")
    first, *rest = chain
    if first["kind"] != "full":
        raise CheckpointError("checkpoint chain must start with a full base")
    if any(entry["kind"] != "delta" for entry in rest):
        raise CheckpointError("checkpoint chain may hold one full base only")
    service.restore(first["payload"])
    for entry in rest:
        service.apply_delta(entry["payload"])
    return service

