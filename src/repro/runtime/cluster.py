"""The P-SMR control plane, and the threaded cluster built on it.

This is the "commodified architecture" of Figure 1: client proxies
marshal invocations and multicast them; each replica — a
:class:`~repro.runtime.engine.ReplicaEngine` — runs ``mpl`` worker
threads that deliver, synchronise and execute against the local service
instance; responses travel back to the client proxy, which returns the
first one.

:class:`PSMRControlPlane` is everything above the replicas, written once
for both runtimes: client response routing, consistent cuts (one kind of
control message, :class:`_Cut`, multicast to every group: a checkpoint
marker or a shard-map update, each replica's report landing in
:meth:`~PSMRControlPlane._handle_cut_done`), the checkpoint scheduler
with watermark-driven log truncation, the replica
fault model of the paper's section IV (crash, then rejoin by log replay,
chain-suffix transfer from the first live peer whose chain holds the
joiner's cut, or full state transfer — cheapest first) and the
inspection helpers.  It talks to a replica only through a small handle
interface:

``replica_id``, ``watermark``, ``crashed``, ``needs_full_transfer``
    bookkeeping the control plane reads and writes;
``queues``
    what registering the replica with the multicast handed back (the
    worker queues in-process, ``None`` over TCP);
``kill()``
    fail-stop the current incarnation and wake anything waiting on it;
``launch(from_disk)`` / ``handshake() -> watermark``
    create the next incarnation, then wait until it says up to which cut
    its checkpoint chain reaches (-1: no chain) — two steps, so that
    several replicas start up side by side;
``install(mode, ...)`` / ``start()`` / ``stop()``
    settle transferred state, run the workers, shut down cleanly;
``stats()`` / ``snapshot()`` / ``chain_suffix(after)``
    management requests.

:class:`ThreadedPSMRCluster` is the control plane plus :class:`_LocalReplica`
(a handle owning an in-process engine) over the in-process transport;
:class:`~repro.runtime.proccluster.ProcessPSMRCluster` is the same
control plane plus a handle owning a child process over TCP.
"""

import contextlib
import itertools
import os
import threading
import time
from functools import partial

from repro.common.checkpoint_store import CheckpointStore
from repro.common.errors import (
    CheckpointError,
    ConfigurationError,
    RecoveryError,
    StaleShardRouteError,
)
from repro.core.cg import CGFunction
from repro.core.command import Command, Response
from repro.multicast.group import ALL_GROUPS
from repro.multicast.sharding import ShardRouter
from repro.runtime import ioloop
from repro.runtime.engine import ReplicaEngine
from repro.runtime.multicast import LocalAtomicMulticast
from repro.runtime.transport.inproc import InprocTransport
from repro.runtime.transport.wire import make_cut

#: Seconds between two looks of the checkpoint scheduler at its policy.
CHECKPOINT_POLL_INTERVAL = 0.005


class _Cut:
    """Coordinator-side waiter for one cut's per-replica reports.

    A cut — a checkpoint marker or a shard-map update — is multicast to
    :data:`ALL_GROUPS`, so it is totally ordered against every command,
    and executed in synchronous mode by every replica (see
    :meth:`ReplicaEngine._handle_cut`).  What travels is :attr:`wire`;
    this object stays with the issuing thread, published in the control
    plane's ``_pending_cuts`` under :attr:`id` so the replicas' ``c``
    reports can find it.  ``source`` is the one replica whose report
    matters, or ``None`` when every replica reports — ``crash_replica``
    scans pending cuts by it to decide whom a crash fails.  The first
    outcome per replica wins: a report, or the exception standing in for
    it (a crash, a failed checkpoint).
    """

    _ids = itertools.count()

    def __init__(self, source=None, shard=False):
        self.id = next(self._ids)
        self.source = source
        self.wire = make_cut(self.id, source, shard)
        self._settled = threading.Condition()
        self._outcomes = {}

    def settle(self, replica_id, outcome):
        """Record ``replica_id``'s report, or the exception raised in its
        place; a later outcome for the same replica is dropped."""
        with self._settled:
            self._outcomes.setdefault(replica_id, outcome)
            self._settled.notify_all()

    def wait_for(self, replica_id, timeout=None):
        """Block until ``replica_id`` reported; return its report or raise
        the exception that stands in for it (:class:`TimeoutError` when
        nothing came within ``timeout``); refused on the I/O loop's
        thread, which is what carries a replica process's report."""
        ioloop.forbid_blocking("waiting for a cut report")
        with self._settled:
            if not self._settled.wait_for(
                lambda: replica_id in self._outcomes, timeout
            ):
                raise TimeoutError(
                    f"no report of cut {self.id} from replica {replica_id}"
                )
            outcome = self._outcomes[replica_id]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class PendingInvocation:
    """Handle for an in-flight pipelined invocation (see ``invoke_async``).

    Exactly one consumer should collect each invocation, through one of:

    * :meth:`result` — block until the first replica responds;
    * :meth:`add_done_callback` — be called (possibly immediately, possibly
      from a replica worker thread) when the response lands; this is the
      hook the asyncio HTTP frontend bridges onto its event loop;
    * :meth:`discard` — abandon the invocation.  Abandoning is what a
      timed-out HTTP request does: it drops the waiter registration (and
      any response that already landed) so the late response is thrown
      away at the router instead of leaking into a dead future.
    """

    __slots__ = ("cluster", "uid", "name")

    def __init__(self, cluster, uid, name):
        self.cluster = cluster
        self.uid = uid
        self.name = name

    def result(self, timeout=10.0):
        """Block until the first replica responds; return the response.

        Refused on the I/O loop's thread when it would wait
        (:class:`~repro.common.errors.BlockingOnLoopError`): the invocation
        stays in flight, to collect from another thread or to
        :meth:`discard`.
        """
        return self.cluster._await_response(self.uid, self.name, timeout)

    def add_done_callback(self, callback):
        """Invoke ``callback(response)`` when the first response lands.

        If the response already arrived, ``callback`` runs synchronously
        before this returns; otherwise it runs on whichever replica worker
        thread delivers the response — callbacks must be cheap and
        thread-safe (the frontend's bridge just trampolines onto its event
        loop).  Returns ``False`` when the invocation was already
        collected or discarded, in which case ``callback`` never runs.
        """
        return self.cluster._set_waiter_callback(self.uid, callback)

    def discard(self):
        """Abandon the invocation: no response will ever be delivered.

        Idempotent.  After this returns no new callback can fire and a
        late response is dropped by the router; a callback that a worker
        thread already claimed (popped under the router lock) may still
        complete concurrently — consumers guard with their own
        ``future.done()`` check.
        """
        self.cluster._discard_waiter(self.uid)


class ThreadedClient:
    """A client proxy: turns invocations into commands and waits for a response."""

    def __init__(self, cluster, client_id):
        self.cluster = cluster
        self.client_id = client_id
        self._sequence = itertools.count()

    def invoke_async(self, name, **args):
        """Multicast a command without waiting; return a :class:`PendingInvocation`.

        Pipelining several invocations before collecting their results is
        what fills the replicas' delivery batches: a strictly closed-loop
        client hands the worker one command per wakeup, so batching then
        has nothing to amortise.
        """
        command = Command(
            uid=(self.client_id, next(self._sequence)),
            name=name,
            args=args,
        )
        cluster = self.cluster
        cluster._register_waiter(command.uid)
        try:
            # Routing races a live shard-map change: the sequencer rejects
            # a routing computed against a superseded map before it
            # consumes a sequence number, and we simply re-route against
            # the new map.  One retry suffices per map change; the bound
            # only guards against a pathological stream of updates.
            for _attempt in range(8):
                gamma, shard_version = cluster.cg.route(name, args)
                command.destinations = gamma
                try:
                    cluster.multicast.multicast(
                        gamma, command, shard_version=shard_version
                    )
                except StaleShardRouteError:
                    continue
                return PendingInvocation(cluster, command.uid, name)
            raise StaleShardRouteError(
                f"routing of {name} stayed stale across 8 shard-map changes"
            )
        except BaseException:
            # A failed submit must not leak its waiter registration: the
            # command was never sequenced, so no response will ever come
            # to collect it.
            cluster._discard_waiter(command.uid)
            raise

    def invoke(self, name, timeout=10.0, **args):
        """Invoke a service command and return its value (first replica
        response).  Refused on the I/O loop's thread before anything is
        sent (:class:`~repro.common.errors.BlockingOnLoopError`)."""
        ioloop.forbid_blocking("ThreadedClient.invoke")
        return self.invoke_async(name, **args).result(timeout)


class ResponseRouter:
    """Client-response plumbing of the control plane.

    Routes each invocation's first response to its waiter: duplicate
    replies (active replication sends one per replica), replies after a
    client timed out, and replies re-executed during recovery replay are
    dropped.  Requires ``self._lock`` (a ``threading.Lock``) plus the
    ``self._waiters`` / ``self._responses`` dicts.

    A waiter slot holds one of three values: ``None`` (registered, nobody
    collecting yet), a ``threading.Event`` (a blocked :meth:`result`
    caller), or a callable (an ``add_done_callback`` consumer — invoked
    with the response, outside the lock, by whichever thread delivers it).
    """

    def _register_waiter(self, uid):
        # ``None`` marks "registered, nobody blocked yet".  The Event is
        # allocated lazily in ``_await_response`` only when the client gets
        # there *before* the response — in pipelined use the response has
        # usually landed already, and the allocate/set/wait cycle of a
        # per-invocation Event is pure overhead on the hot path.
        with self._lock:
            self._waiters[uid] = None

    def _discard_waiter(self, uid):
        with self._lock:
            self._waiters.pop(uid, None)
            self._responses.pop(uid, None)

    def _set_waiter_callback(self, uid, callback):
        """Attach ``callback`` as the invocation's consumer.

        Returns ``True`` when the callback was attached (or, if the
        response already landed, invoked immediately with it) and
        ``False`` when the invocation is unknown — already collected,
        discarded, or never registered — in which case the callback will
        never run.
        """
        with self._lock:
            if uid in self._responses:
                response = self._responses.pop(uid)
                self._waiters.pop(uid, None)
            elif uid in self._waiters:
                self._waiters[uid] = callback
                return True
            else:
                return False
        callback(response)
        return True

    def _await_response(self, uid, name, timeout):
        with self._lock:
            if uid in self._responses:
                self._waiters.pop(uid, None)
                return self._responses.pop(uid)
            event = self._waiters.get(uid)
            if event is None:
                if uid not in self._waiters:
                    raise KeyError(f"invocation {uid} is not awaiting a response")
                event = self._waiters[uid] = threading.Event()
        # Only a wait is refused there: an answer that landed is returned.
        ioloop.forbid_blocking("PendingInvocation.result")
        if not event.wait(timeout):
            # Drop the registration (and any response that raced the
            # timeout) so abandoned invocations do not leak waiters.
            self._discard_waiter(uid)
            raise TimeoutError(f"no response for {name} within {timeout}s")
        return self._take_response(uid)

    def _respond(self, uid, response):
        self._respond_many([(uid, response)])

    def _respond_many(self, responses, replica_id=None):
        """Deliver a batch of answers in one lock round-trip.

        ``responses`` holds ``(uid, Response)`` pairs or — given the
        ``replica_id`` of the process that sent them, as a decoded ``r``
        frame's ``resps`` — ``(uid, value, error)`` triples, of which only
        an answer still awaited becomes a :class:`Response`.  Duplicate
        replies (active replication sends one per replica), replies after
        a client timed out or was discarded, and replies re-executed
        during recovery replay stop at the uid check.
        """
        to_wake = []
        to_call = []
        with self._lock:
            waiters = self._waiters
            stored = self._responses
            for answer in responses:
                uid = answer[0]
                if uid not in waiters or uid in stored:
                    continue
                if replica_id is None:
                    response = answer[1]
                else:
                    response = Response(uid, answer[1], answer[2], replica_id)
                waiter = waiters[uid]
                if callable(waiter):
                    # Callback consumer: hand the response over directly
                    # (the registration is dropped, nothing is stored) so a
                    # marker retained in the log cannot pin it and
                    # duplicates hit the "uid not in waiters" drop above.
                    del waiters[uid]
                    to_call.append((waiter, response))
                    continue
                stored[uid] = response
                if waiter is not None:
                    to_wake.append(waiter)
        for waiter in to_wake:
            waiter.set()
        for callback, response in to_call:
            callback(response)

    def _take_response(self, uid):
        with self._lock:
            self._waiters.pop(uid, None)
            return self._responses.pop(uid)



class _CheckpointScheduler(threading.Thread):
    """Background driver of a cluster's :class:`CheckpointPolicy`.

    Polls the multicast message counter; once ``every_messages`` ordered
    messages are due it runs one periodic checkpoint (every live replica
    snapshots locally at a marker cut) followed by watermark-driven log
    truncation.  A crash racing the marker, or a replica whose checkpoint
    failed, aborts that round only — the next poll retries.
    """

    def __init__(self, cluster, policy):
        super().__init__(name="psmr-checkpoint-scheduler", daemon=True)
        self.cluster = cluster
        self.policy = policy
        # NB: not ``_stop`` — that would shadow threading.Thread internals.
        self._stop_event = threading.Event()
        self._last_messages = cluster.multicast.messages_multicast

    def run(self):
        while not self._stop_event.wait(CHECKPOINT_POLL_INTERVAL):
            messages = self.cluster.multicast.messages_multicast
            if not self.policy.due(messages - self._last_messages):
                continue
            try:
                self.cluster.periodic_checkpoint()
            except (RecoveryError, TimeoutError, CheckpointError):
                # A crash, a slow barrier or a failed checkpoint aborted
                # this round.  Leave the trigger counter untouched so the
                # policy stays due and the next poll retries, instead of
                # waiting a full period.
                continue
            self._last_messages = self.cluster.multicast.messages_multicast

    def stop(self, join_timeout=5.0):
        self._stop_event.set()
        if self.is_alive():
            self.join(join_timeout)



class PSMRControlPlane(ResponseRouter):
    """Everything a P-SMR deployment does above its replicas (see module doc).

    ``checkpoint_policy`` — a :class:`~repro.common.checkpoint.CheckpointPolicy`
    — turns on the checkpoint-scheduling and log-truncation subsystem: a
    background scheduler periodically multicasts a *local* checkpoint
    marker at which **every** live replica snapshots its own service,
    advancing its installed-checkpoint watermark; the multicast log is
    then truncated up to the minimum watermark across all replicas.  A
    crashed replica keeps pinning the log at its last watermark — so it
    can later recover cheaply by replaying the suffix it missed — until
    its lag exceeds the policy's ``max_replay_lag``, at which point it is
    marked as requiring a full state transfer and the log is truncated
    without it.  With a ``shard_map``, keyed commands route through a
    versioned key-range partition instead of the static modulo rule, and
    :meth:`update_shard_map` / :meth:`rebalance_shards` re-partition the
    keyspace live.

    Subclasses hand in the ``transport`` the sequencer sends through,
    then fill ``self.replicas`` with their handles.
    """

    def __init__(self, spec, mpl, transport, log_retention, num_replicas,
                 barrier_timeout, seed, checkpoint_policy, shard_map):
        if num_replicas < 1:
            raise ConfigurationError("need at least one replica")
        self.spec = spec
        self.mpl = mpl
        self.multicast = multicast = LocalAtomicMulticast(
            transport, retention=log_retention
        )
        self.num_replicas = num_replicas
        self.barrier_timeout = barrier_timeout
        self.shard_router = None
        if shard_map is not None:
            self.shard_router = ShardRouter(shard_map, self.mpl)
            multicast.shard_router = self.shard_router
            multicast.shard_version = shard_map.version
        self.shard_migrations = []
        self.cg = CGFunction(spec, self.mpl, seed=seed, router=self.shard_router)
        self.checkpoint_policy = checkpoint_policy
        self.checkpoints_taken = 0
        self.truncations = 0
        #: One record per checkpoint a replica took (sequence, replica,
        #: kind) and one per recovery (replica, mode, entries transferred).
        self.checkpoint_events = []
        self.recovery_transfers = []
        self.replicas = []
        self._scheduler = None
        self._pending_cuts = {}  # cut id -> _Cut
        # Cumulative boundary-violation count last reported by each
        # (replica, generation) — summed by ``marker_boundary_violations``,
        # so violations observed before a crash still count afterwards.
        self._boundary_counts = {}
        #: Serialises log truncation against replica (re-)registration, and
        #: holds per-replica floors that pin truncation below an in-flight
        #: recovery's transfer point.
        self._recovery_lock = threading.Lock()
        self._truncation_floors = {}
        self._responses = {}
        self._waiters = {}
        self._lock = threading.Lock()
        self._client_ids = itertools.count()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._started:
            return self
        live = self.live_replicas()
        # Replicas not registered at construction (a replica process has
        # to exist and dial in first) bring their first incarnation up:
        # all are launched before any handshake is awaited, so they start
        # up in parallel.
        registered = self.multicast.replica_ids()
        newborn = [
            replica for replica in live if replica.replica_id not in registered
        ]
        for replica in newborn:
            replica.launch(from_disk=True)
        for replica in newborn:
            replica.handshake()
            self._register(replica)
        for replica in live:
            replica.start()
        self._started = True
        if self.checkpoint_policy is not None:
            self._scheduler = _CheckpointScheduler(self, self.checkpoint_policy)
            self._scheduler.start()
        return self

    def shutdown(self):
        if self._scheduler is not None:
            self._scheduler.stop()
            self._scheduler = None
        # Every registered replica is told to exit first, so they wind
        # down in parallel; ``stop`` then waits for each in turn.
        self.multicast.shutdown()
        for replica in self.replicas:
            replica.stop()
        self._started = False

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()

    def client(self):
        """Create a new client proxy bound to this cluster."""
        return ThreadedClient(self, next(self._client_ids))

    def _register(self, replica, after_sequence=None):
        """Register a replica with the multicast, atomically with the
        replay of the retained log after ``after_sequence``;
        :class:`RecoveryError` when the log no longer reaches back that
        far."""
        with self._recovery_lock:
            replica.queues = self.multicast.register_replica(
                replica.replica_id, after_sequence=after_sequence
            )

    # ------------------------------------------------------------------
    # Replica reports (a worker thread, or the transport's reader thread —
    # keep handlers cheap)
    # ------------------------------------------------------------------
    def _handle_cut_done(self, replica_id, report):
        """A replica executed a cut: the single place watermarks, checkpoint
        events and boundary counts are recorded, and the waiting cut (if
        it still waits) is handed the report, or its ``error``."""
        replica = self.replicas[replica_id]
        self._note_boundary(replica, report["boundary"])
        error = report["error"]
        with self._lock:
            # Always advance the bookkeeping — even for a cut nobody is
            # waiting on anymore (e.g. one re-executed during replay).
            if error is None and report["kind"] != "shard":
                sequence, kind = report["sequence"], report["kind"]
                replica.watermark = max(replica.watermark, sequence)
                self.checkpoint_events.append(
                    {"sequence": sequence, "replica_id": replica_id, "kind": kind}
                )
            cut = self._pending_cuts.get(report["cut"])
        if cut is not None:
            cut.settle(replica_id, CheckpointError(error) if error else report)

    def _note_boundary(self, replica, count):
        with self._lock:
            self._boundary_counts[(replica.replica_id, replica.generation)] = count

    @property
    def marker_boundary_violations(self):
        """Cuts that completed with responses still pending on a worker;
        the batched drain keeps this at zero and tests assert on it."""
        with self._lock:
            return sum(self._boundary_counts.values())

    # ------------------------------------------------------------------
    # Consistent cuts
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _published(self, cut):
        """Keep ``cut`` findable by replica reports and crashes."""
        with self._lock:
            self._pending_cuts[cut.id] = cut
        try:
            yield
        finally:
            with self._lock:
                self._pending_cuts.pop(cut.id, None)

    def _collect(self, cut, replicas, timeout):
        """``{replica_id: report}`` from every replica that reported.

        One shared deadline across the waits: the bound is ``timeout``
        total, not ``timeout`` per replica.  A replica that crashed while
        the cut was in flight is skipped; a failed checkpoint raises its
        :class:`CheckpointError`.
        """
        if timeout is None:
            timeout = self.barrier_timeout
        deadline = time.monotonic() + timeout
        reports = {}
        for replica in replicas:
            try:
                reports[replica.replica_id] = cut.wait_for(
                    replica.replica_id, max(0.0, deadline - time.monotonic())
                )
            except RecoveryError:
                continue
        return reports

    def checkpoint(self, replica_id=None, timeout=None):
        """Checkpoint the cluster at one consistent cut.

        Multicasts a checkpoint marker to every group and returns
        ``(sequence, state)`` from ``replica_id`` (default: the first live
        replica).  Every live replica synchronises at the same cut; only
        the source materialises its state.  Raises :class:`RecoveryError`
        immediately if the source crashes after the marker is multicast but
        before it delivers its checkpoint, and :class:`CheckpointError` if
        its snapshot or durable write failed.
        """
        if replica_id is None:
            replica_id = self.live_replicas()[0].replica_id
        elif self.replicas[replica_id].crashed:
            raise RecoveryError(f"replica {replica_id} is crashed")
        cut = _Cut(source=replica_id)
        with self._published(cut):
            # Re-check after publishing the cut: a crash_replica that ran
            # between the validation above and the publish scanned an empty
            # pending set, so one of the two sides must observe the other
            # (crash_replica sets ``crashed`` before scanning).
            if self.replicas[replica_id].crashed:
                raise RecoveryError(f"replica {replica_id} is crashed")
            self.multicast.multicast(ALL_GROUPS, cut.wire)
            if timeout is None:
                timeout = self.barrier_timeout
            report = cut.wait_for(replica_id, timeout)
        return report["sequence"], report["state"]

    def periodic_checkpoint(self, timeout=None):
        """Take one local checkpoint on every live replica, then truncate.

        Multicasts a periodic marker (no source): each live replica
        snapshots its own service at the marker cut and advances its
        installed-checkpoint watermark.  Once every live replica has
        reported in, the multicast log is truncated up to the minimum
        watermark (see :meth:`truncate_to_watermarks`).  Returns the
        marker's sequence number, or ``None`` when no replica checkpointed
        (e.g. everything crashed mid-marker).  A replica whose checkpoint
        failed raises :class:`CheckpointError` at once; its watermark stays
        where it was.

        Normally driven by the background scheduler, but safe to call
        directly (tests and operators do).
        """
        cut = _Cut()
        with self._published(cut):
            live = self.live_replicas()
            self.multicast.multicast(ALL_GROUPS, cut.wire)
            reports = self._collect(cut, live, timeout)
        if not reports:
            return None
        self.checkpoints_taken += 1
        self.truncate_to_watermarks()
        return next(iter(reports.values()))["sequence"]

    def update_shard_map(self, new_map, timeout=None):
        """Install a new shard map live; returns the migration record.

        The update is ordered on every group, so it is a barrier against
        every command: commands sequenced before it were routed (and
        checked) under the old map, commands after it under the new one —
        :meth:`LocalAtomicMulticast.multicast_shard_update` flips the
        sequencer's shard version atomically with the update's sequencing,
        and clients re-route anything rejected as stale.  Each live replica
        synchronises its workers at the cut and reports; that barrier is
        the whole move.  A moved key's old group finishes everything
        ordered before the switch before its new group starts, and no
        state moves, because every replica already holds all of it.
        Every replica reports, so a crash of *any* fails its wait.  The
        cluster keeps the migration record in :attr:`shard_migrations`.

        No replica stops serving at any point: the barrier is the same one
        a periodic checkpoint pays, minus the snapshot.
        """
        if self.shard_router is None:
            raise ConfigurationError("cluster was built without a shard map")
        old_map = self.shard_router.shard_map
        if new_map.version != old_map.version + 1:
            raise ConfigurationError(
                "shard map version must advance by one: "
                f"{old_map.version} -> {new_map.version}"
            )
        moved = new_map.moved_ranges(old_map)
        cut = _Cut(shard=True)
        started = time.monotonic()
        with self._published(cut):
            live = self.live_replicas()
            self.multicast.multicast_shard_update(cut.wire, new_map)
            reports = self._collect(cut, live, timeout)
        record = {
            "from_version": old_map.version,
            "to_version": new_map.version,
            "sequence": next(
                (report["sequence"] for report in reports.values()), None
            ),
            "moved_ranges": list(moved),
            "duration_seconds": time.monotonic() - started,
            "replicas": sorted(reports),
        }
        with self._lock:
            self.shard_migrations.append(record)
        return record

    def rebalance_shards(self, min_imbalance=1.25, timeout=None):
        """Re-partition from observed load; ``None`` when balanced enough.

        Asks the router's load tracker for a rebalance proposal
        (:func:`~repro.multicast.sharding.propose_rebalance`) and installs
        it via :meth:`update_shard_map`.  The tracker resets after a
        migration so the next proposal reflects post-migration load.
        """
        if self.shard_router is None:
            raise ConfigurationError("cluster was built without a shard map")
        proposal = self.shard_router.propose_rebalance(min_imbalance=min_imbalance)
        if proposal is None:
            return None
        record = self.update_shard_map(proposal, timeout=timeout)
        self.shard_router.tracker.reset()
        return record

    # ------------------------------------------------------------------
    # Log truncation
    # ------------------------------------------------------------------
    def truncate_to_watermarks(self):
        """Truncate the multicast log up to the minimum replayable watermark.

        Live replicas always pin the log at their latest installed
        checkpoint (they may crash later and want suffix replay).  Crashed
        replicas pin it too while their replay lag stays within the
        policy's ``max_replay_lag``; past that horizon they are marked
        ``needs_full_transfer`` and stop holding the log back.  In-flight
        recoveries pin the log at their transfer point via floors.
        """
        policy = self.checkpoint_policy
        with self._recovery_lock:
            latest = self.multicast.latest_sequence()
            watermarks = list(self._truncation_floors.values())
            for replica in self.replicas:
                if replica.crashed:
                    if replica.needs_full_transfer:
                        continue
                    lag = latest - replica.watermark
                    past_horizon = policy is not None and not policy.replayable(lag)
                    truncated_past = (
                        replica.watermark + 1 < self.multicast.min_retained()
                    )
                    if past_horizon or truncated_past:
                        replica.needs_full_transfer = True
                        continue
                watermarks.append(replica.watermark)
            if not watermarks:
                return
            floor = min(watermarks)
            if floor >= 0 and floor + 1 > self.multicast.min_retained():
                self.multicast.truncate_log(floor)
                self.truncations += 1

    def _record_transfer(self, replica_id, mode, entries):
        """Record one recovery: its path and how many chain entries moved."""
        with self._lock:
            self.recovery_transfers.append(
                {"replica_id": replica_id, "mode": mode, "entries": entries}
            )

    # ------------------------------------------------------------------
    # Crash and recovery
    # ------------------------------------------------------------------
    def live_replicas(self):
        """The replicas currently serving (not crashed)."""
        return [replica for replica in self.replicas if not replica.crashed]

    def crash_replica(self, replica_id):
        """Fail-stop one replica: no further deliveries, workers gone.

        Survivors are unaffected — barriers are per-replica, so in-flight
        synchronous-mode commands on live replicas keep making progress.
        Cuts and management requests currently waiting on
        this replica are failed immediately (with :class:`RecoveryError`)
        instead of hanging for the full barrier timeout.
        """
        replica = self.replicas[replica_id]
        if replica.crashed:
            raise RecoveryError(f"replica {replica_id} is already crashed")
        if len(self.live_replicas()) <= 1:
            raise RecoveryError("cannot crash the last live replica")
        replica.crashed = True
        replica.kill()
        self.multicast.unregister_replica(replica_id)
        with self._lock:
            pending = list(self._pending_cuts.values())
        for cut in pending:
            if cut.source in (None, replica_id):
                cut.settle(
                    replica_id,
                    RecoveryError(
                        f"replica {replica_id} crashed before reporting "
                        f"cut {cut.id}"
                    ),
                )
        return replica

    def crash_replicas(self, replica_ids):
        """Fail-stop several replicas at once; returns the crashed replicas.

        At least one replica must stay live.  The crashes are applied in
        order and fail fast: an invalid id (already crashed, or crashing
        would leave no live replica) raises before later ids are touched.
        """
        return [self.crash_replica(replica_id) for replica_id in replica_ids]

    def recover_replica(self, replica_id, source_replica_id=None):
        """Bring a crashed replica back online, negotiating the cheapest path.

        The replica's next incarnation says up to which cut its checkpoint
        chain reaches (a threaded "crash" keeps its in-memory chain; a killed
        process keeps nothing, so this is always a full transfer there —
        :meth:`restart_replica_from_disk` is its cheap path).  Three
        paths, tried in cost order:

        * **Log-suffix replay** (no transfer at all): the replica restores
          its *own* checkpoint chain (watermark ``w``) and replays the
          retained log after ``w``.
        * **Chain-suffix transfer**: when the log no longer reaches back to
          ``w`` but a live peer's checkpoint chain extends the joiner's —
          the peer checkpointed at the same cuts and has not taken a full
          snapshot since ``w`` — only the *delta* entries after ``w`` are
          transferred; the joiner restores its own chain plus the suffix
          and replays the log after the peer's chain tip.
        * **Full state transfer**: a live peer is checkpointed at a fresh
          marker (sequence ``s``); the joiner restores that state and is
          registered with the log suffix after ``s``.  The fallback when
          no chain lineage is shared, and the path taken when
          ``source_replica_id`` explicitly requests a peer transfer.

        An explicit ``source_replica_id`` is validated up front: it must
        be a live replica other than the one being recovered.
        """
        return self._rejoin(replica_id, source_replica_id, from_disk=False)

    def restart_replica_from_disk(self, replica_id, source_replica_id=None):
        """Recover a crashed replica from its local stable storage.

        The paper's deployment story: whatever the dead incarnation held
        in memory is gone, and the durable chain is reloaded from the
        replica's :class:`CheckpointStore` — reopened from disk, so only
        checksummed complete segments count.  The normal negotiation of
        :meth:`recover_replica` then runs on the reloaded chain (a fresh
        full transfer is also the path when the disk held no usable one).
        """
        return self._rejoin(replica_id, source_replica_id, from_disk=True)

    def recover_replicas(self, replica_ids, source_replica_id=None):
        """Recover several crashed replicas from one shared checkpoint.

        A single live peer is checkpointed once; every replica in
        ``replica_ids`` restores that state and is registered with the log
        suffix after the marker's sequence number.  This is how a cluster
        heals from simultaneous multi-replica failures without paying one
        checkpoint per victim.  Returns the recovered replicas in order.
        """
        replicas = self._crashed_replicas(replica_ids, source_replica_id)
        if not replicas:
            return []
        with self._negotiating(replicas):
            for replica in replicas:
                replica.launch(from_disk=False)
            for replica in replicas:
                replica.handshake()
            self._recover_via_full_transfer(replicas, source_replica_id)
        return replicas

    def _rejoin(self, replica_id, source_replica_id, from_disk):
        (replica,) = self._crashed_replicas([replica_id], source_replica_id)
        with self._negotiating([replica]):
            replica.launch(from_disk)
            replica.watermark = replica.handshake()
            if from_disk:
                # The disk watermark may differ from the one the crash left
                # in our bookkeeping; re-derive transfer feasibility.
                replica.needs_full_transfer = False
            joined = False
            # With an empty chain (watermark -1), replay would re-execute
            # the whole retained history from a fresh service —
            # O(history), not O(state) — so such a joiner skips straight
            # to a peer transfer.
            if source_replica_id is None and replica.watermark >= 0:
                if not replica.needs_full_transfer:
                    joined = self._recover_via_replay(replica)
                if not joined:
                    joined = self._recover_via_chain_transfer(replica)
            if not joined:
                self._recover_via_full_transfer([replica], source_replica_id)
        return replica

    def _crashed_replicas(self, replica_ids, source_replica_id):
        """The handles to recover, after validating them and the source."""
        replica_ids = list(replica_ids)
        for replica_id in replica_ids:
            if not self.replicas[replica_id].crashed:
                raise RecoveryError(f"replica {replica_id} is not crashed")
        if source_replica_id is not None:
            if source_replica_id in replica_ids:
                raise RecoveryError(
                    f"source replica {source_replica_id} is being recovered"
                )
            if self.replicas[source_replica_id].crashed:
                raise RecoveryError(
                    f"source replica {source_replica_id} is crashed"
                )
        return [self.replicas[replica_id] for replica_id in replica_ids]

    @contextlib.contextmanager
    def _negotiating(self, replicas):
        """Bracket one recovery: pin the log, and leave nothing half-joined.

        Truncation is pinned at each joiner's last known cut for the whole
        negotiation (-1 pins everything: cheap, and the window is one
        recovery), so a concurrent periodic checkpoint cannot truncate past
        the point a joiner will replay from before it is registered.  If
        the recovery fails, every incarnation it launched is reaped again,
        handshaken or not — the replica stays crashed, exactly as before
        the call.
        """
        with self._recovery_lock:
            for replica in replicas:
                self._truncation_floors[replica.replica_id] = replica.watermark
        try:
            yield
        except BaseException:
            for replica in replicas:
                if replica.crashed:
                    replica.kill()
                    self.multicast.unregister_replica(replica.replica_id)
            raise
        finally:
            with self._recovery_lock:
                for replica in replicas:
                    self._truncation_floors.pop(replica.replica_id, None)

    def _join(self, replica, after_sequence):
        """Register a settled joiner with the log after its cut; start it.

        Raises :class:`RecoveryError` (and changes nothing) when the log no
        longer reaches back to ``after_sequence``.
        """
        self._register(replica, after_sequence)
        replica.watermark = after_sequence
        if self._started:
            replica.start()
        replica.needs_full_transfer = False
        replica.crashed = False

    def _recover_via_replay(self, replica):
        """Cheapest rung: the joiner's own chain plus retained-log replay.

        False when the log no longer reaches back to the joiner's watermark
        or the replay would exceed the policy's horizon.
        """
        policy = self.checkpoint_policy
        lag = self.multicast.latest_sequence() - replica.watermark
        if policy is not None and not policy.replayable(lag):
            replica.needs_full_transfer = True
            return False
        try:
            self._join(replica, replica.watermark)
        except RecoveryError:  # the log is truncated past the joiner's cut
            replica.needs_full_transfer = True
            return False
        self._record_transfer(replica.replica_id, "replay", 0)
        return True

    def _recover_via_chain_transfer(self, replica):
        """Delta rung: transfer only the chain suffix the joiner misses.

        The live peers are asked in replica-id order for their chain after
        the joiner's watermark ``w``; the first whose chain still holds
        ``w`` as a cut donates — periodic markers cut every replica at the
        same sequences, so that holds exactly when the peer has not started
        a new chain (taken a full snapshot) since.
        The joiner restores its *own* chain to ``w``, applies the donor's
        delta entries after ``w``, and replays the log after the donor's
        chain tip (retained, because the live donor's watermark pins
        truncation).  False when no live peer's chain extends the
        joiner's, or when the replay after the donor's tip would itself
        exceed the policy's ``max_replay_lag`` horizon (the O(history)
        replay the horizon forbids).
        """
        watermark = replica.watermark
        policy = self.checkpoint_policy
        for donor in self.live_replicas():
            try:
                suffix = donor.chain_suffix(watermark)
            except (RecoveryError, TimeoutError):
                continue  # crashed (or wedged) since the liveness check
            if suffix is None:
                continue  # the donor's chain no longer holds the cut
            tip = suffix[-1]["sequence"] if suffix else watermark
            if policy is not None and not policy.replayable(
                self.multicast.latest_sequence() - tip
            ):
                return False
            replica.install("chain", entries=suffix)
            try:
                self._join(replica, tip)
            except RecoveryError:
                # The full-transfer fallback replaces the extended chain
                # wholesale, so the install above is harmless.
                return False
            self._record_transfer(replica.replica_id, "chain-suffix", len(suffix))
            return True
        return False

    def _recover_via_full_transfer(self, replicas, source_replica_id):
        """Last rung: one fresh peer checkpoint, restored by every joiner."""
        sequence, state = self.checkpoint(replica_id=source_replica_id)
        for replica in replicas:
            replica.install("full", sequence=sequence, state=state)
            self._join(replica, sequence)
            self._record_transfer(replica.replica_id, "full", 1)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _poll_stats(self):
        """Every live replica's counters (see :meth:`ReplicaEngine.stats`)."""
        stats = []
        for replica in self.live_replicas():
            entry = replica.stats()
            self._note_boundary(replica, entry["boundary"])
            stats.append(entry)
        return stats

    def wait_for_quiescence(self, timeout=10.0, poll=0.01):
        """Block until every live replica has drained and executed the same commands.

        The client proxy returns as soon as the *first* replica responds, so
        a caller that wants to compare replica states must first let the
        slower replicas catch up.  Quiescence is declared when nothing is
        in flight or queued and per-replica execution counters are equal
        and stable across two consecutive polls.  Refused on the I/O
        loop's thread.
        """
        ioloop.forbid_blocking("wait_for_quiescence")
        deadline = time.monotonic() + timeout
        previous = None
        while time.monotonic() < deadline:
            drained = self.multicast.is_drained()
            try:
                stats = self._poll_stats()
            except (RecoveryError, TimeoutError):
                stats = None  # a replica crashed or stalled mid-poll
            counters = None
            if drained and stats and not any(entry["queued"] for entry in stats):
                counters = tuple(entry["executed"] for entry in stats)
                if len(set(counters)) == 1 and counters == previous:
                    return True
            previous = counters
            time.sleep(poll)
        raise TimeoutError("cluster did not quiesce within the timeout")

    def replica_snapshots(self, quiesce=True):
        """Return each live replica's service snapshot (replicas must converge)."""
        if quiesce and self._started:
            self.wait_for_quiescence()
        return [replica.snapshot() for replica in self.live_replicas()]

    def delivery_batch_stats(self):
        """Achieved delivery amortisation: messages, wakeups, average batch."""
        stats = self._poll_stats()
        delivered = sum(entry["delivered"] for entry in stats)
        batches = sum(entry["batches"] for entry in stats)
        return {
            "messages_delivered": delivered,
            "batches_drained": batches,
            "avg_batch": (delivered / batches) if batches else 0.0,
        }


class _LocalReplica:
    """Threaded-runtime replica handle: owns an in-process engine.

    The engine's two sinks are bound to direct calls into the control
    plane, so a response batch or a cut report is one method call away
    from the waiting client or coordinator thread.
    """

    def __init__(self, cluster, replica_id, store):
        self.cluster = cluster
        self.replica_id = replica_id
        self.store = store
        self.crashed = False
        self.watermark = -1
        #: Set once the log has been truncated past this (crashed) replica's
        #: watermark: suffix replay is no longer possible and recovery must
        #: transfer state from a live peer.
        self.needs_full_transfer = False
        #: Incarnation counter (keys the boundary-violation bookkeeping).
        self.generation = 0
        self.queues = None
        self.engine = self._new_engine(())

    def _new_engine(self, chain):
        cluster = self.cluster
        self.generation += 1
        return ReplicaEngine(
            self.replica_id, cluster.mpl, cluster.service_factory, chain,
            self.store, cluster.checkpoint_policy, cluster.barrier_timeout,
            on_responses=cluster._respond_many,
            on_cut_done=partial(cluster._handle_cut_done, self.replica_id),
        )

    # What tests and examples read (and the crash tests overwrite) on a
    # threaded replica, under the names they always had.
    service = property(lambda self: self.engine.service)
    threads = property(lambda self: self.engine.threads)
    checkpoint_chain = property(
        lambda self: self.engine.chain,
        lambda self, chain: setattr(self.engine, "chain", chain),
    )
    checkpoint_watermark = property(
        lambda self: self.watermark,
        lambda self, sequence: setattr(self, "watermark", sequence),
    )

    def kill(self):
        self.engine.crash()

    def launch(self, from_disk):
        """The one real asymmetry with a replica process: a threaded
        "crash" keeps its in-memory chain, so a plain relaunch may still
        replay.  From disk, the chain is what a cold reopen of the store
        finds — exactly what a fresh process would see."""
        chain = self.engine.chain
        if from_disk:
            if self.store is None:
                raise RecoveryError(
                    f"replica {self.replica_id} has no durable checkpoint store"
                )
            chain = CheckpointStore(self.store.directory).load_chain()
        self.engine = self._new_engine(chain)

    def handshake(self):
        """The engine is built by :meth:`launch`: nothing to wait for."""
        return self.engine.watermark

    def install(self, mode, **transfer):
        self.engine.install(mode, **transfer)

    def start(self):
        self.engine.start(self.queues)

    def stop(self):
        self.engine.join()  # the multicast's shutdown poisoned the queues

    def stats(self):
        return self.engine.stats()

    def snapshot(self):
        return self.engine.snapshot()

    def chain_suffix(self, after):
        return self.engine.chain_suffix(after)


class ThreadedPSMRCluster(PSMRControlPlane):
    """A complete in-process P-SMR deployment over real threads.

    ``service_factory`` builds one service state machine per replica (e.g.
    ``KeyValueStoreServer``); ``spec`` provides the command signatures and
    routing from which the C-G function is compiled.  ``log_retention``
    bounds the multicast replay log (``None`` retains everything, which is
    what tests use).  ``checkpoint_policy`` enables periodic background
    checkpoints plus watermark-driven log truncation, which is how
    production deployments keep the replay log bounded.

    ``store_dir`` turns the in-memory checkpoint chains into a restartable
    subsystem: every replica persists its chain to a
    :class:`~repro.common.checkpoint_store.CheckpointStore` under
    ``store_dir/replica-<id>`` (crash-safe segments plus an atomic
    manifest), and a crashed replica can rejoin as a restarted *process*
    via :meth:`restart_replica_from_disk`.  ``fault_plane`` detours
    deliveries through the
    :class:`~repro.runtime.transport.inproc.InprocTransport`'s
    :class:`~repro.runtime.transport.pump.FramePump`.
    """

    def __init__(self, spec, service_factory, mpl=4, num_replicas=2,
                 barrier_timeout=10.0, seed=0, log_retention=None,
                 checkpoint_policy=None, store_dir=None, fault_plane=None,
                 shard_map=None):
        super().__init__(
            spec, mpl, InprocTransport(mpl, fault_plane), log_retention,
            num_replicas, barrier_timeout, seed, checkpoint_policy, shard_map,
        )
        self.service_factory = service_factory
        self.fault_plane = fault_plane
        #: Per-replica durable stores (empty when ``store_dir`` is unset).
        self.stores = {}
        for replica_id in range(num_replicas):
            if store_dir is not None:
                self.stores[replica_id] = CheckpointStore(
                    os.path.join(store_dir, f"replica-{replica_id}")
                )
            replica = _LocalReplica(self, replica_id, self.stores.get(replica_id))
            # Subscribed from construction, so commands multicast before
            # ``start`` wait in the queues instead of being lost.
            self._register(replica)
            self.replicas.append(replica)
