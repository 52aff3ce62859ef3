"""Transport-neutral atomic multicast core (sequencer, log, registration).

``multicast(destinations, payload)`` assigns each message a global
sequence number under a lock, appends the ordered item ``(sequence,
destinations, payload)`` to the retained log, and hands it to the
transport with ``transport.send(item)``.  The sequencer addresses
*replicas*: the transport reaches every registered replica, and the
replica's receiving end
(:class:`~repro.runtime.transport.inproc.ReplicaInbox`) works out
which of its worker threads deliver the item.  Two transports exist:
:class:`~repro.runtime.transport.inproc.InprocTransport` (the threaded
runtime: worker queues filled inline, or through the pump when a fault
plane is set) and
:class:`~repro.runtime.transport.tcp.TcpCoordinatorTransport` (the
process runtime: one connection per replica process).

A transport provides ``carries_bytes`` (True when items leave the
process: every command is then encoded once, here, before the lock),
``on_replica_registered(replica_id, replay)`` (returns what the
replica's handle needs: the worker queues in-process, nothing over
TCP; ``replay`` is the retained suffix the replica missed, or ``None``,
and is a local handover that bypasses fault planning),
``on_replica_unregistered(replica_id)``, ``send(item)``,
``pending(replica_id=None)`` (items no worker has taken yet) and
``shutdown()``.  Destinations must be hashable (``ALL_GROUPS`` or a
frozenset/tuple of group ids): they key the fan-out caches, as they key
the workers' plan cache.

Threading contract: the core calls ``on_replica_*``, ``send`` and
``shutdown`` while holding its sequencer lock, so a transport sees
registration changes and sends fully serialised and must not call back
into the core.  ``pending`` is called without the lock.
"""

import collections
import itertools
import threading

from repro.common import codec as _codec
from repro.common.errors import (
    ConfigurationError,
    RecoveryError,
    StaleShardRouteError,
)
from repro.core.command import Command
from repro.multicast.group import ALL_GROUPS


def encode_wire(command, wire_codec):
    """:func:`~repro.common.codec.encode_command` under the name and
    signature ``bench/run.py`` imports; ``"binary"`` is the one codec."""
    if wire_codec == "binary":
        return _codec.encode_command(command)
    raise ConfigurationError(f"unknown wire codec {wire_codec!r}")


class LocalAtomicMulticast:
    """Sequencer-based atomic multicast connecting client and server threads.

    ``multicast(destinations, payload)`` assigns the message a global
    sequence number under a lock and sends it, atomically, to every
    registered replica, whose workers subscribed to a destination group
    deliver it (each thread subscribes to its own group and to ``g_all``).
    Every subscriber of the same groups therefore delivers the same
    messages in the same relative order — the agreement and order
    properties of section II.

    The sequencer also retains a log of ordered messages so a recovering
    replica can be registered *atomically* with the suffix it missed:
    :meth:`register_replica` hands the new replica every retained message
    after a checkpoint's sequence number before any new multicast can slip
    in between.  ``retention`` bounds the log (``None`` keeps everything);
    replaying past a truncated prefix raises
    :class:`~repro.common.errors.RecoveryError`.
    """

    def __init__(self, transport, retention=None):
        if retention is not None and retention < 1:
            raise ConfigurationError("log retention must be >= 1 (or None)")
        self.transport = transport
        #: Encoded command bytes ordered so far.  A transport that
        #: ``carries_bytes`` gets every command encoded once, at multicast
        #: time, and each worker decodes its own copy; any other is handed
        #: the command object by reference and this stays 0.  Cuts
        #: (checkpoint markers, shard updates) are plain wire dicts already;
        #: the transport that needs bytes frames them itself.
        self.wire_bytes = 0
        self._lock = threading.Lock()
        self._sequence = itertools.count()
        self._replicas = set()
        # Retained ordered items: (sequence, destinations, payload).
        self._log = collections.deque()
        self._retention = retention
        self._min_retained = 0
        self._latest_sequence = -1
        self.messages_multicast = 0
        #: Version of the shard map the sequencer currently honours.  A
        #: ``multicast`` carrying an older version is rejected before it
        #: consumes a sequence number; :meth:`multicast_shard_update`
        #: advances it atomically with the update's own sequencing.
        self.shard_version = 0
        #: Optional :class:`~repro.multicast.sharding.ShardRouter` whose
        #: map is installed under the sequencing lock on shard updates.
        self.shard_router = None
        self.stale_routings_rejected = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_replica(self, replica_id, after_sequence=None):
        """Register a replica; return what the transport hands back for it
        (its worker queues in-process, ``None`` over TCP).

        With ``after_sequence`` set, the replica is handed — atomically
        with the registration — the retained log suffix after that
        sequence number.  This is the replay half of recovery: checkpoint
        at sequence ``s``, then register with ``after_sequence=s`` and no
        message is lost or duplicated.
        """
        with self._lock:
            if after_sequence is not None and after_sequence + 1 < self._min_retained:
                raise RecoveryError(
                    f"multicast log truncated at {self._min_retained}; cannot "
                    f"replay after sequence {after_sequence}"
                )
            if replica_id in self._replicas:
                raise ConfigurationError(f"replica {replica_id} registered twice")
            replay = None
            if after_sequence is not None:
                replay = [item for item in self._log if item[0] > after_sequence]
            handle = self.transport.on_replica_registered(replica_id, replay)
            self._replicas.add(replica_id)
            return handle

    def unregister_replica(self, replica_id):
        """Stop deliveries to a replica (a no-op if it is not registered)."""
        with self._lock:
            if replica_id in self._replicas:
                self._replicas.remove(replica_id)
                self.transport.on_replica_unregistered(replica_id)

    def replica_ids(self):
        with self._lock:
            return sorted(self._replicas)

    # ------------------------------------------------------------------
    # Multicast
    # ------------------------------------------------------------------
    def multicast(self, destinations, payload, shard_version=None):
        """Atomically deliver ``payload`` to every thread of every destination group.

        ``shard_version`` is the shard-map version the caller routed
        ``destinations`` with (``None`` for routings that never consult
        the dynamic map).  If a shard-map update was sequenced since the
        routing, the call raises
        :class:`~repro.common.errors.StaleShardRouteError` *before*
        consuming a sequence number, and the caller re-routes.
        """
        encoded = self.transport.carries_bytes and isinstance(payload, Command)
        if encoded:
            payload = _codec.encode_command(payload)
        with self._lock:
            if shard_version is not None and shard_version != self.shard_version:
                self.stale_routings_rejected += 1
                raise StaleShardRouteError(
                    f"command routed with shard map v{shard_version}, "
                    f"sequencer is at v{self.shard_version}"
                )
            sequence = self._order_locked(destinations, payload, encoded)
        return sequence

    def multicast_shard_update(self, payload, new_map):
        """Order a shard-map update on every group, advancing the version.

        The update is sequenced like any ``ALL_GROUPS`` multicast, but the
        sequencer's ``shard_version`` (and the attached router's map, if
        any) advance *under the same lock acquisition* — so every command
        sequenced before the update was checked against the old version
        and every one after it against the new.  There is no window in
        which a stale routing can slip past the update.
        """
        with self._lock:
            if new_map.version <= self.shard_version:
                raise ConfigurationError(
                    f"shard map version must advance: {new_map.version} "
                    f"<= {self.shard_version}"
                )
            sequence = self._order_locked(ALL_GROUPS, payload, False)
            self.shard_version = new_map.version
            if self.shard_router is not None:
                self.shard_router.install(new_map)
        return sequence

    def _order_locked(self, destinations, payload, encoded):
        """Assign a sequence number, log and send; caller holds ``_lock``."""
        sequence = next(self._sequence)
        self._latest_sequence = sequence
        self.messages_multicast += 1
        if encoded:
            self.wire_bytes += len(payload)
        item = (sequence, destinations, payload)
        self._log.append(item)
        if self._retention is not None and len(self._log) > self._retention:
            self._log.popleft()  # one in, one out: O(1) under the lock
            self._min_retained = self._log[0][0]
        self.transport.send(item)
        return sequence

    # ------------------------------------------------------------------
    # Log retention and replay
    # ------------------------------------------------------------------
    def truncate_log(self, up_to_sequence):
        """Drop retained messages with ``sequence <= up_to_sequence``."""
        with self._lock:
            log = self._log
            while log and log[0][0] <= up_to_sequence:
                log.popleft()
            self._min_retained = max(self._min_retained, up_to_sequence + 1)

    def log_size(self):
        """Number of messages currently retained for replay."""
        with self._lock:
            return len(self._log)

    def latest_sequence(self):
        """Sequence number of the most recently ordered message (-1 if none)."""
        with self._lock:
            return self._latest_sequence

    def min_retained(self):
        """Smallest sequence number still replayable from the retained log."""
        with self._lock:
            return self._min_retained

    # ------------------------------------------------------------------
    # Drain inspection
    # ------------------------------------------------------------------
    def pending_count(self, replica_id=None):
        """Undelivered messages across all replicas (or one replica's).

        Includes messages still held by the transport — delayed,
        retransmitting, held by a partition or behind a late message, or
        not yet written to a socket — so a drain check cannot report an
        empty system while messages are merely late.
        """
        return self.transport.pending(replica_id)

    def is_drained(self, replica_id=None):
        """True when nothing is pending for any replica (or for one)."""
        return self.pending_count(replica_id) == 0

    def shutdown(self):
        """Tell every registered replica to stop once it has drained."""
        with self._lock:
            self.transport.shutdown()
