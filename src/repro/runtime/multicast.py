"""Transport-neutral atomic multicast core (sequencer, log, registration).

``multicast(destinations, payload)`` assigns each message a global
sequence number under a lock, appends it to the retained log, and hands
it to the pluggable :class:`~repro.runtime.transport.base.Transport`
for delivery to every worker thread subscribed to a destination group.
The default transport is
:class:`~repro.runtime.transport.inproc.InprocTransport` (per-thread
in-process queues, detoured through the pump when a fault plane is
set); the process-per-replica runtime plugs in
:class:`~repro.runtime.transport.tcp.TcpCoordinatorTransport` instead.
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
from repro.multicast.group import ALL_GROUPS, GroupLayout
from repro.runtime.transport.base import TransportRoute
from repro.runtime.transport.inproc import InprocTransport


def encode_wire(command, wire_codec):
    """:func:`~repro.common.codec.encode_command` under the name and
    signature ``bench/run.py`` imports; ``"binary"`` is the one codec."""
    if wire_codec == "binary":
        return _codec.encode_command(command)
    raise ConfigurationError(f"unknown wire codec {wire_codec!r}")


class LocalAtomicMulticast:
    """Sequencer-based atomic multicast connecting client and server threads.

    ``multicast(destinations, payload)`` assigns the message a global
    sequence number under a lock and appends it, atomically, to the delivery
    queue of every worker thread subscribed to a destination group (each
    thread subscribes to its own group and to ``g_all``).  Every subscriber
    of the same groups therefore delivers the same messages in the same
    relative order — the agreement and order properties of section II.

    The sequencer also retains a log of ordered messages so a recovering
    replica can be registered *atomically* with the suffix it missed:
    :meth:`register_replica` pre-fills the new replica's delivery queues
    with every retained message after a checkpoint's sequence number before
    any new multicast can slip in between.  ``retention`` bounds the log
    (``None`` keeps everything); replaying past a truncated prefix raises
    :class:`~repro.common.errors.RecoveryError`.

    ``transport`` selects the delivery layer; ``None`` builds an
    :class:`~repro.runtime.transport.inproc.InprocTransport` around
    ``fault_plane`` (the threaded runtime's behaviour).
    """

    def __init__(self, mpl, retention=None, fault_plane=None, transport=None):
        if mpl < 1:
            raise ConfigurationError("multiprogramming level must be >= 1")
        if retention is not None and retention < 1:
            raise ConfigurationError("log retention must be >= 1 (or None)")
        if transport is not None and fault_plane is not None:
            raise ConfigurationError(
                "pass the fault plane to the transport, not the multicast, "
                "when supplying a transport explicitly"
            )
        #: Optional :class:`~repro.common.faults.FaultPlane`; when set (and
        #: no explicit transport is given), all deliveries detour through
        #: the transport's pump instead of the inline fast path.
        self.fault_plane = fault_plane
        self.transport = (
            transport if transport is not None else InprocTransport(fault_plane)
        )
        self.layout = GroupLayout(mpl)
        self.mpl = mpl
        #: Encoded command bytes ordered so far.  A transport that
        #: ``carries_bytes`` gets every command encoded once, at multicast
        #: time, and each worker decodes its own copy; any other is handed
        #: the command object by reference and this stays 0.  Cuts
        #: (checkpoint markers, shard updates) are plain wire dicts already;
        #: the transport that needs bytes frames them itself.
        self.wire_bytes = 0
        self._lock = threading.Lock()
        self._sequence = itertools.count()
        # (replica_id, thread_index) -> delivery endpoint
        self._queues = {}
        # Hot-path caches: destinations -> delivering thread set (the
        # layout is fixed by mpl, so entries never go stale), and thread
        # set -> TransportRoute over the subscribed endpoints (cleared on
        # every registration change, rebuilt lazily under the lock).
        self._threads_for = {}
        self._routes = {}
        # Retained ordered messages: (sequence, destinations, threads, payload).
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
    def register_replica(self, replica_id, thread_indices, after_sequence=None):
        """Register every thread of a replica; return ``{thread_index: queue}``.

        With ``after_sequence`` set, each queue is pre-filled — atomically
        with the registration — with the retained log suffix the thread
        would have delivered after that sequence number.  This is the replay
        half of recovery: checkpoint at sequence ``s``, then register with
        ``after_sequence=s`` and no message is lost or duplicated.
        """
        thread_indices = list(thread_indices)
        with self._lock:
            if after_sequence is not None and after_sequence + 1 < self._min_retained:
                raise RecoveryError(
                    f"multicast log truncated at {self._min_retained}; cannot "
                    f"replay after sequence {after_sequence}"
                )
            endpoints = {}
            try:
                for thread_index in thread_indices:
                    endpoints[thread_index] = self._register_locked(
                        replica_id, thread_index
                    )
            except Exception:
                # Roll back the threads registered so far: a failure halfway
                # through (e.g. one duplicate thread index) must not leave
                # the earlier threads of the same call registered forever.
                for thread_index in endpoints:
                    self._queues.pop((replica_id, thread_index), None)
                raise
            replay = None
            if after_sequence is not None:
                replay = [
                    entry for entry in self._log if entry[0] > after_sequence
                ]
            self.transport.on_replica_registered(replica_id, endpoints, replay)
            return endpoints

    def _register_locked(self, replica_id, thread_index):
        key = (replica_id, thread_index)
        if key in self._queues:
            raise ConfigurationError(f"thread {key} registered twice")
        endpoint = self.transport.open_endpoint(replica_id, thread_index)
        self._queues[key] = endpoint
        self._routes.clear()
        return endpoint

    def unregister_replica(self, replica_id):
        """Remove a replica's queues (no further deliveries); return them."""
        with self._lock:
            keys = [key for key in self._queues if key[0] == replica_id]
            endpoints = {key[1]: self._queues.pop(key) for key in keys}
            self._routes.clear()
            self.transport.on_replica_unregistered(replica_id, endpoints)
            return endpoints

    def replica_ids(self):
        with self._lock:
            return sorted({replica for replica, _thread in self._queues})

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
        try:
            threads = self._threads_for[destinations]
        except (KeyError, TypeError):
            if destinations == ALL_GROUPS:
                threads = frozenset(range(1, self.mpl + 1))
            else:
                threads = frozenset(self.layout.delivering_threads(destinations))
            try:
                # Benign race: concurrent misses compute the same value
                # (the layout is fixed), and a GIL-atomic store publishes
                # it.  Unhashable destination containers just skip caching.
                self._threads_for[destinations] = threads
            except TypeError:
                pass
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
            sequence = self._order_locked(destinations, threads, payload, encoded)
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
        threads = frozenset(range(1, self.mpl + 1))
        with self._lock:
            if new_map.version <= self.shard_version:
                raise ConfigurationError(
                    f"shard map version must advance: {new_map.version} "
                    f"<= {self.shard_version}"
                )
            sequence = self._order_locked(ALL_GROUPS, threads, payload, False)
            self.shard_version = new_map.version
            if self.shard_router is not None:
                self.shard_router.install(new_map)
        return sequence

    def _order_locked(self, destinations, threads, payload, encoded):
        """Assign a sequence number, log and send; caller holds ``_lock``."""
        sequence = next(self._sequence)
        self._latest_sequence = sequence
        self.messages_multicast += 1
        if encoded:
            self.wire_bytes += len(payload)
        self._log.append((sequence, destinations, threads, payload))
        if self._retention is not None and len(self._log) > self._retention:
            self._log.popleft()  # one in, one out: O(1) under the lock
            self._min_retained = self._log[0][0]
        item = (sequence, destinations, payload)
        route = self._routes.get(threads)
        if route is None:
            flat = [
                endpoint
                for (_replica, thread_index), endpoint in self._queues.items()
                if thread_index in threads
            ]
            # Group targets per replica so fault planning sees one
            # per-replica delivery (all threads of a replica share the
            # planned copies, like one connection per peer), in a
            # stable replica order so the plane's rng draws line up
            # across replays of the same ordered-message sequence.
            by_replica = {}
            for (replica, thread_index), endpoint in self._queues.items():
                if thread_index in threads:
                    by_replica.setdefault(replica, []).append(
                        (thread_index, endpoint)
                    )
            grouped = [
                (replica, by_replica[replica])
                for replica in sorted(by_replica)
            ]
            route = TransportRoute(flat, grouped)
            self._routes[threads] = route
        self.transport.send(route, item)
        return sequence

    # ------------------------------------------------------------------
    # Log retention and replay
    # ------------------------------------------------------------------
    def log_suffix(self, thread_index, after_sequence):
        """Return ``[(sequence, destinations, payload)]`` a thread missed.

        The suffix contains every retained message with a sequence number
        greater than ``after_sequence`` that is addressed to a group the
        thread subscribes to, in delivery order.
        """
        with self._lock:
            if after_sequence + 1 < self._min_retained:
                raise RecoveryError(
                    f"multicast log truncated at {self._min_retained}; cannot "
                    f"replay after sequence {after_sequence}"
                )
            return [
                (sequence, destinations, payload)
                for sequence, destinations, threads, payload in self._log
                if sequence > after_sequence and thread_index in threads
            ]

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
    # Drain inspection (public API: no reaching into ``_queues``)
    # ------------------------------------------------------------------
    def pending_count(self, replica_id=None):
        """Undelivered messages across all queues (or one replica's).

        Includes messages still held by the transport — delayed,
        retransmitting, partition-parked, awaiting in-order reassembly or
        not yet written to a socket — so a drain check cannot report an
        empty system while copies are merely late.
        """
        with self._lock:
            count = sum(
                endpoint.qsize()
                for (queue_replica, _thread), endpoint in self._queues.items()
                if replica_id is None or queue_replica == replica_id
            )
        count += self.transport.in_flight(replica_id)
        return count

    def is_drained(self, replica_id=None):
        """True when every delivery queue (or one replica's) is empty."""
        return self.pending_count(replica_id) == 0

    def shutdown(self):
        """Deliver a poison pill to every registered thread."""
        with self._lock:
            self.transport.shutdown(dict(self._queues))
