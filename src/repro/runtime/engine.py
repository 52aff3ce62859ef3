"""The replica engine: one P-SMR replica, written once for both runtimes.

This is the server side of the paper's "commodified architecture"
(Figure 1): ``mpl`` worker threads that deliver, synchronise (barriers
for synchronous mode) and execute against the local service instance.
The engine also owns everything a replica keeps to itself — the
checkpoint chain with its full/delta cadence, the durable store it is
persisted to, compaction, chain-suffix donation and the delivery
counters.

It reports outward only through two callables, fired per flush and per
cut, never per command:

* ``on_responses(pairs)`` — a batch of ``(uid, Response)`` pairs;
* ``on_cut_done(report)`` — a ``c`` report: a cut (a checkpoint marker
  or a shard-map update) was executed, and the checkpoint taken at it —
  or the ``error`` that stopped it.  A shard-map update takes nothing:
  its barrier is the whole of a routing switch.

The threaded runtime binds them to direct calls into the control plane;
a replica process binds them to ``r`` / ``c`` frames on its socket.  A
cut arrives in one form in both runtimes — the wire dict of
:func:`~repro.runtime.transport.wire.make_cut` — and the report is a wire
dict too, so neither side of either binding translates anything.
"""

import threading
from functools import lru_cache

from repro.common.checkpoint import (
    compact_chain,
    estimate_checkpoint_size,
    restore_chain,
)
from repro.common.codec import decode_command
from repro.common.errors import CheckpointError, ReplicaCrashedError
from repro.core.protocol import plan_execution

#: Messages a worker drains per wake-up: one lock round-trip amortised
#: over the run instead of paid per command.
DELIVERY_BATCH_SIZE = 32

#: ``plan_execution`` is a pure function of hashable arguments and the hot
#: path calls it once per delivered command — memoising it removes the
#: per-command plan construction (the argument space is tiny: destination
#: sets over ``mpl`` groups times thread indices).
_cached_plan = lru_cache(maxsize=None)(plan_execution)


class _Barrier:
    """One barrier's state, from its first arrival to ``complete``."""

    __slots__ = ("arrived", "awaited", "ready", "done")

    def __init__(self):
        self.arrived = set()  # assisting thread indices
        self.awaited = None  # the peers the executor is blocked on, if it is
        self.ready = None  # set by the arrival that completes ``awaited``
        self.done = threading.Event()  # set by the executor: assistants go on


class _BarrierSync:
    """Per-replica synchronous-mode signalling, one record per barrier.

    Algorithm 1's rule stands: the lowest-indexed destination thread
    executes, its peers assist.  An assistant registers its arrival and
    picks up the barrier's completion event under one lock acquisition;
    the executor cannot complete before that arrival, so no waiter can
    come late and nothing is remembered once ``complete`` dropped the
    record.  The executor blocks only while a peer is missing, and only
    the arrival that completes its set wakes it: one wake-up per thread
    per barrier.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._barriers = {}  # uid -> _Barrier
        self._crashed = False

    def _enter(self, uid):
        """The barrier of ``uid``, created by whoever arrives first; locked."""
        if self._crashed:
            raise ReplicaCrashedError(f"replica crashed at barrier of {uid}")
        barrier = self._barriers.get(uid)
        if barrier is None:
            barrier = self._barriers[uid] = _Barrier()
        return barrier

    def _wait(self, event, uid, timeout, whom):
        if not event.wait(timeout):
            raise TimeoutError(f"barrier timed out waiting for {whom} of {uid}")
        if self._crashed:
            raise ReplicaCrashedError(f"replica crashed at barrier of {uid}")

    def assist(self, uid, thread_index, timeout=None):
        """Signal arrival at ``uid``; block until its executor completed it."""
        with self._lock:
            barrier = self._enter(uid)
            barrier.arrived.add(thread_index)
            awaited = barrier.awaited
            if awaited is not None and awaited <= barrier.arrived:
                barrier.ready.set()
        self._wait(barrier.done, uid, timeout, "executor")

    def wait_for_peers(self, uid, peers, timeout=None):
        with self._lock:
            barrier = self._enter(uid)
            if barrier.arrived.issuperset(peers):
                return
            barrier.awaited = frozenset(peers)
            barrier.ready = threading.Event()
        self._wait(barrier.ready, uid, timeout, "peers")

    def complete(self, uid):
        with self._lock:
            barrier = self._barriers.pop(uid, None)
        if barrier is not None:
            barrier.done.set()

    def crash(self):
        """Wake every waiting worker with :class:`ReplicaCrashedError`."""
        with self._lock:
            self._crashed = True
            barriers = list(self._barriers.values())
            self._barriers.clear()
        for barrier in barriers:
            barrier.done.set()
            if barrier.ready is not None:
                barrier.ready.set()


class ReplicaEngine:
    """One replica: a service instance plus ``mpl`` worker threads.

    ``chain`` seeds the checkpoint chain (what a restarted replica found
    on disk, or what a threaded "crash" left in memory); ``store`` is the
    optional :class:`~repro.common.checkpoint_store.CheckpointStore`
    every chain mutation is persisted to; ``policy`` supplies the
    full/delta cadence and the compaction trigger (scheduling itself
    lives in the control plane).
    """

    def __init__(self, replica_id, mpl, service_factory, chain, store, policy,
                 barrier_timeout, on_responses, on_cut_done):
        self.replica_id = replica_id
        self.mpl = mpl
        self.service_factory = service_factory
        #: Built by :meth:`install` or, failing that, by :meth:`start`.
        self.service = None
        self.store = store
        self.policy = policy
        self.barrier_timeout = barrier_timeout
        self.on_responses = on_responses
        self.on_cut_done = on_cut_done
        self.barrier = _BarrierSync()
        self.crashed = False
        #: The replica's local checkpoint chain: one full base entry
        #: followed by the deltas chained off it, each shaped
        #: ``{"kind", "sequence", "payload"}``.  Replaced wholesale (never
        #: mutated in place) so concurrent readers see a consistent chain.
        #: Its tip is the replica's installed-checkpoint watermark: the log
        #: must retain everything after it for suffix replay.
        self.chain = list(chain)
        #: Periodic deltas taken since the last full snapshot — the
        #: ``full_every`` cadence counter.  Kept separately from the chain
        #: length because compaction shrinks the chain without making the
        #: base any fresher; seeding it from the entry count under-counts
        #: by at most the compacted run, the trade ``compact_after``
        #: already accepts.
        self.deltas_since_full = self._count_deltas()
        #: Set while a checkpoint is being taken and left set if it fails:
        #: the service's delta tracking then no longer starts at the chain
        #: tip, so the next checkpoint must be full.
        self._rebase = False
        #: Serialises chain mutations (cuts, recovery install) against
        #: off-path compaction and donation; also makes the durable store
        #: single-writer.
        self.chain_lock = threading.Lock()
        self.delivered = [0] * (mpl + 1)
        #: Batches drained per thread (``delivered[i] / batches[i]`` is the
        #: thread's achieved amortisation).  Single-writer slots: no lock.
        self.batches = [0] * (mpl + 1)
        #: Incremented if a cut ever completes with responses still
        #: pending on a worker — the batched drain keeps this at zero
        #: (cuts land exactly at batch boundaries); tests assert on it.
        self.boundary_violations = 0
        self._counter_lock = threading.Lock()
        self.queues = {}
        self.threads = []

    # ------------------------------------------------------------------
    # Chain bookkeeping
    # ------------------------------------------------------------------
    def _count_deltas(self):
        return sum(1 for entry in self.chain if entry["kind"] == "delta")

    @property
    def watermark(self):
        """Sequence of the latest installed checkpoint; -1 is the initial
        service state (the cut before any message)."""
        return self.chain[-1]["sequence"] if self.chain else -1

    def _set_chain(self, chain):
        """Persist ``chain``, then adopt it; caller holds ``chain_lock``.

        A chain is adopted only once it is durable: when the write fails
        the replica keeps its old chain, in memory as on disk, so no report
        and no donation ever names a cut its own restart would not find.
        """
        if self.store is not None:
            self.store.sync_chain(chain)
        self.chain = chain

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, mode, sequence=None, state=None, entries=()):
        """Install transferred recovery state before :meth:`start`.

        ``"full"`` restores a peer's snapshot taken at ``sequence`` (it
        becomes the new chain base); ``"chain"`` extends the replica's own
        chain with the donated suffix ``entries`` and restores the result.
        """
        service = self.service_factory()
        with self.chain_lock:
            if mode == "full":
                service.restore(state)
                chain = [{"kind": "full", "sequence": sequence, "payload": state}]
            else:
                chain = [*self.chain, *entries]
                restore_chain(service, chain)
            self._set_chain(chain)
            self.deltas_since_full = self._count_deltas()
        self.service = service

    def start(self, queues):
        """Run the workers over ``{thread_index: delivery queue}``.

        Chain and cadence are settled *before* the workers start — the
        queues may already hold a replayed periodic cut whose execution
        reads (and must extend, not be overwritten by) the chain, keeping
        it in sync with the service's delta-tracking mark.
        """
        if self.service is None:
            # Nothing was transferred: a fresh replica, or replay recovery
            # on top of the replica's own chain.
            self.service = self.service_factory()
            if self.chain:
                restore_chain(self.service, self.chain)
        self.queues = queues
        for index in range(1, self.mpl + 1):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(index, queues[index]),
                name=f"psmr-replica{self.replica_id}-t{index}",
                daemon=True,
            )
            self.threads.append(worker)
            worker.start()

    def join(self, timeout=5.0):
        for thread in self.threads:
            thread.join(timeout)

    def stop(self):
        """Clean shutdown: drain, deliver the executed responses, exit."""
        for delivery_queue in self.queues.values():
            delivery_queue.put(None)
        self.join()

    def crash(self):
        """Fail-stop: wake barrier waiters, drop in-flight responses."""
        self.crashed = True
        self.barrier.crash()
        self.stop()

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self, index, delivery_queue):
        """Drain delivered messages in batches and execute them in order.

        One :meth:`DeliveryQueue.get_batch` wakeup processes up to
        ``DELIVERY_BATCH_SIZE`` messages — one lock round-trip amortised
        over the whole run instead of paid per command.  Parallel-mode responses
        are accumulated and handed to ``on_responses`` in one batch too;
        they are always flushed before anything that can block or reorder
        — a barrier, a cut — and at the end of every drained
        batch, so a closed-loop client is never left waiting on a response
        this thread is sitting on.
        """
        mpl = self.mpl
        barrier = self.barrier
        timeout = self.barrier_timeout
        pending = []  # (uid, response) pairs not yet reported
        while True:
            batch = delivery_queue.get_batch(DELIVERY_BATCH_SIZE)
            self.batches[index] += 1
            for item in batch:
                if item is None or self.crashed:
                    # Clean shutdown still delivers executed responses; a
                    # crash drops them (the replica is gone mid-flight).
                    if not self.crashed:
                        self._flush_responses(pending)
                    return
                sequence, destinations, command = item
                self.delivered[index] += 1
                try:
                    if isinstance(command, dict):
                        # A cut splits the batch: every response from
                        # before it becomes client-visible before the
                        # barrier, and nothing after it has executed yet
                        # (in-order drain) — so it lands exactly on a
                        # batch boundary.
                        self._flush_responses(pending)
                        self._handle_cut(sequence, command, index)
                        if pending:
                            with self._counter_lock:
                                self.boundary_violations += 1
                            self._flush_responses(pending)
                        continue
                    if isinstance(command, (bytes, bytearray)):
                        command = decode_command(command)
                    plan = _cached_plan(destinations, index, mpl)
                    if plan.mode == "parallel":
                        pending.append((command.uid, self._execute(command)))
                    elif plan.mode == "execute":
                        self._flush_responses(pending)
                        barrier.wait_for_peers(
                            command.uid, plan.peers, timeout=timeout
                        )
                        self.on_responses([(command.uid, self._execute(command))])
                        barrier.complete(command.uid)
                    elif plan.mode == "assist":
                        self._flush_responses(pending)
                        barrier.assist(command.uid, index, timeout)
                    # plan.mode == "ignore": not a destination; nothing to do.
                except ReplicaCrashedError:
                    return
            self._flush_responses(pending)

    def _flush_responses(self, pending):
        """Report accumulated parallel-mode responses at once."""
        if pending:
            self.on_responses(pending)
            pending.clear()

    def _execute(self, command):
        """Apply one command; return the response (the caller reports it)."""
        response = self.service.apply(command)
        if self.crashed:
            raise ReplicaCrashedError("replica crashed before replying")
        response.replica_id = self.replica_id
        return response

    def _synchronise(self, uid, index):
        """Barrier every worker at a cut; True on the executor.

        When thread 1 returns, every sibling has reached the cut, so the
        service reflects exactly the commands sequenced before it; the
        siblings return only after the executor called ``barrier.complete``.
        """
        if index != 1:
            self.barrier.assist(uid, index, self.barrier_timeout)
            return False
        self.barrier.wait_for_peers(
            uid, range(2, self.mpl + 1), timeout=self.barrier_timeout
        )
        return True

    def _handle_cut(self, sequence, cut, index):
        """Synchronous-mode execution of a cut, and its report.

        A shard-map update is only its barrier: once it completes, a moved
        key's old group has executed everything ordered before the switch
        and its new group starts on what is ordered after it.  Every
        replica reports it; no state moves, because every replica already
        holds all of it.  A checkpoint marker with a concrete ``source``
        is materialised by that replica only — the others pay just the
        barrier, which is what makes the cut consistent cluster-wide
        without N copies of the state; with ``source=None`` (a *periodic*
        marker) every replica takes a local checkpoint and keeps the state
        to itself.  A snapshot or write that fails is reported as the
        ``error``; the barrier completes and the workers go on either way.
        """
        uid = ("__cut__", cut["cut"])
        if not self._synchronise(uid, index):
            return
        source = cut["source"]
        if cut["shard"] or source in (None, self.replica_id):
            report = {"t": "c", "cut": cut["cut"], "sequence": sequence,
                      "error": None}
            if cut["shard"]:
                report["kind"] = "shard"
            else:
                try:
                    with self.chain_lock:
                        report.update(self._checkpoint(sequence, source))
                except (CheckpointError, OSError) as exc:
                    report["error"] = f"replica {self.replica_id}: {exc!r}"
            with self._counter_lock:
                report["boundary"] = self.boundary_violations
            self.on_cut_done(report)
        self.barrier.complete(uid)

    def _checkpoint(self, sequence, source):
        """Snapshot the service at a cut, as the report's fields.

        A delta is taken when the policy allows more deltas on the current
        chain and the service supports delta checkpoints; otherwise (and
        always for a source marker, whose state is handed out) a full
        snapshot starts a new chain and resets the service's delta
        tracking, so the next delta is relative to this base.  Delta
        compaction is deliberately *not* done here: every worker thread of
        every replica is stalled at the cut while this runs, so the merge
        is paid off-path by the checkpoint scheduler instead
        (:meth:`compact`).  Caller holds ``chain_lock``.
        """
        policy = self.policy
        take_delta = (
            source is None
            and self.chain
            and not self._rebase
            and policy is not None
            and not policy.take_full(self.deltas_since_full)
            and hasattr(self.service, "delta_checkpoint")
        )
        self._rebase = True
        if take_delta:
            entry = {
                "kind": "delta",
                "sequence": sequence,
                "payload": self.service.delta_checkpoint(),
            }
            self._set_chain([*self.chain, entry])
            self.deltas_since_full += 1
        else:
            entry = {
                "kind": "full",
                "sequence": sequence,
                "payload": self.service.checkpoint(),
            }
            if hasattr(self.service, "reset_delta_tracking"):
                self.service.reset_delta_tracking()
            self._set_chain([entry])
            self.deltas_since_full = 0
        self._rebase = False
        return {
            "kind": entry["kind"],
            "raw_bytes": estimate_checkpoint_size(entry["payload"]),
            # Only a source marker (recovery transfer) hands its state
            # out; a periodic checkpoint stays local.
            "state": entry["payload"] if source is not None else None,
        }

    # ------------------------------------------------------------------
    # Management (any thread)
    # ------------------------------------------------------------------
    def stats(self):
        """Execution counters and the undrained backlog of the workers."""
        with self._counter_lock:
            boundary = self.boundary_violations
        return {
            "executed": getattr(self.service, "commands_executed", 0),
            "queued": sum(q.qsize() for q in self.queues.values()),
            "delivered": sum(self.delivered),
            "batches": sum(self.batches),
            "boundary": boundary,
        }

    def snapshot(self):
        return self.service.snapshot() if self.service is not None else None

    def chain_suffix(self, after):
        """The chain entries after the cut ``after``, or ``None`` when the
        cut is not (or no longer — compaction drops cuts) on this chain."""
        with self.chain_lock:
            chain = self.chain
        for position, entry in enumerate(chain):
            if entry["sequence"] == after:
                return chain[position + 1:]
        return None

    def compact(self):
        """Merge the delta run if the policy says it is due.

        Runs off the cut path with only this replica's ``chain_lock``
        held; workers keep executing commands throughout.  Returns the
        number of chains compacted (0 or 1).
        """
        with self.chain_lock:
            chain = self.chain
            due = (
                self.policy is not None
                and len(chain) > 1
                and self.policy.compact_due(len(chain) - 1)
            )
            if due:
                self._set_chain(compact_chain(chain))
            return int(due)
