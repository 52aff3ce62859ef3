"""The replica engine: one P-SMR replica, written once for both runtimes.

This is the server side of the paper's "commodified architecture"
(Figure 1): ``mpl`` worker threads that deliver, synchronise (barriers
for synchronous mode) and execute against the local service instance.
A command or cut addressed to several threads runs on whichever of them
arrives last at its barrier; the earlier arrivals are parked until it is
done (Algorithm 1 names the lowest-indexed thread instead; with every
other destination parked at the same point of its stream, the outcome is
the same).
In a replica process one more thread executes: the receive loop, which
:meth:`ReplicaEngine.deliver` hands each worker's run.  While that
worker is idle — everything handed to it finished and answered — the
loop runs the run's leading parallel-mode commands itself and answers
them in one ``on_responses`` call, so a command to an idle group costs no thread
wake-up and no GIL hand-off (the Leader/Followers rule: the thread that
received an event processes it unless order needs another).  The rest of
the run, and every run for a busy worker, is queued for the worker.  A
group's commands therefore still run one at a time in stream order, and
every multi-group command and cut still goes through the barrier.  The
threaded runtime queues every item: its feeders (a client thread under
the sequencer lock, the I/O loop under a fault plane) run no service
code.
A :data:`~repro.core.command.BATCH` command — calls a client packed
because the C-G function sends them to the same destinations — runs
where its destinations say, like any command: its calls are applied in
order and it is answered once, with ``[(value, error), ...]``, on both
runtimes.
The engine also owns everything a replica keeps to itself — the
checkpoint chain with its full/delta cadence, the durable store it is
persisted to, chain-suffix donation and the delivery counters.  A
checkpoint taken at a cut is its snapshot and its durable write, nothing
more: the payload is handed to the store (or kept in memory) unread.

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

from repro.common.checkpoint import restore_chain
from repro.common.codec import decode_command
from repro.common.errors import ReplicaCrashedError
from repro.core.command import BATCH, Command, Response
from repro.core.protocol import plan_execution

#: Messages a worker drains per wake-up: one lock round-trip amortised
#: over the run instead of paid per command.
DELIVERY_BATCH_SIZE = 32

#: ``plan_execution`` is a pure function of hashable arguments and the hot
#: path calls it once per delivered command — memoising it removes the
#: per-command plan construction (the argument space is tiny: destination
#: sets over ``mpl`` groups times thread indices).
_cached_plan = lru_cache(maxsize=None)(plan_execution)


class _BarrierSync:
    """Per-replica synchronous-mode barriers: the last arrival runs.

    A centralized barrier (Mellor-Crummey & Scott, 1991): the arrival
    that completes ``uid`` gets True from :meth:`arrive`, executes the
    command or cut and calls :meth:`release`; every earlier arrival parks
    on a one-shot lock, allocated already held, which ``release`` frees:
    no thread sleeps while another does the work, and nobody is woken
    twice.  The record lives from the first arrival to ``release`` (so
    :meth:`crash` can free threads parked behind a completer that is
    still executing) and nothing is kept after it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._barriers = {}  # uid -> the parked arrivals' locks
        self._crashed = False

    def arrive(self, uid, parties, timeout=None):
        """Arrive at ``uid``'s barrier of ``parties`` threads.

        True on the completing arrival, which must call :meth:`release`;
        an earlier arrival parks and returns False once released.
        """
        with self._lock:
            if self._crashed:
                raise ReplicaCrashedError(f"replica crashed at barrier of {uid}")
            parked = self._barriers.setdefault(uid, [])
            if len(parked) + 1 == parties:
                return True
            gate = threading.Lock()
            gate.acquire()
            parked.append(gate)
        if not gate.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(f"barrier timed out waiting for the arrivals of {uid}")
        if self._crashed:
            raise ReplicaCrashedError(f"replica crashed at barrier of {uid}")
        return False

    def release(self, uid):
        """Drop ``uid``'s record and let its parked arrivals go on."""
        with self._lock:
            parked = self._barriers.pop(uid, ())
        for gate in parked:
            gate.release()

    def crash(self):
        """Wake every parked worker with :class:`ReplicaCrashedError`."""
        with self._lock:
            self._crashed = True
            records = list(self._barriers.values())
            self._barriers.clear()
        for parked in records:
            for gate in parked:
                gate.release()


class ReplicaEngine:
    """One replica: a service instance plus ``mpl`` worker threads.

    ``chain`` seeds the checkpoint chain (what a restarted replica found
    on disk, or what a threaded "crash" left in memory); ``store`` is the
    optional :class:`~repro.common.checkpoint_store.CheckpointStore`
    every chain mutation is persisted to; ``policy`` supplies the
    full/delta cadence (scheduling itself lives in the control plane).
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
        #: Set while a checkpoint is being taken and left set if it fails:
        #: the service's delta tracking then no longer starts at the chain
        #: tip, so the next checkpoint must be full.
        self._rebase = False
        #: Commands delivered per thread; slot 0 counts those the receive
        #: loop ran itself (:meth:`deliver`).
        self.delivered = [0] * (mpl + 1)
        #: Batches drained per thread (``delivered[i] / batches[i]`` is the
        #: thread's achieved amortisation); slot 0 counts the runs the
        #: receive loop ran.  Single-writer slots: no lock.
        self.batches = [0] * (mpl + 1)
        #: Items put on each worker's queue by :meth:`deliver` (the receive
        #: loop writes it) and items the worker has finished and answered
        #: (the worker writes it, once per batch): equal, the worker is
        #: idle.  One writer each: no lock.
        self.handed = [0] * (mpl + 1)
        self.finished = [0] * (mpl + 1)
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
    @property
    def watermark(self):
        """Sequence of the latest installed checkpoint; -1 is the initial
        service state (the cut before any message)."""
        return self.chain[-1]["sequence"] if self.chain else -1

    def _set_chain(self, chain):
        """Persist ``chain``, then adopt it.

        A chain is adopted only once it is durable: when the write fails
        the replica keeps its old chain, in memory as on disk, so no report
        and no donation ever names a cut its own restart would not find.
        The writers never overlap, so the store has a single writer:
        :meth:`install` runs before :meth:`start`, and a cut's checkpoint
        runs inside its barrier, which the next cut's completer cannot
        pass before this one's ``release``.
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
        if mode == "full":
            service.restore(state)
            chain = [{"kind": "full", "sequence": sequence, "payload": state}]
        else:
            chain = [*self.chain, *entries]
            restore_chain(service, chain)
        self._set_chain(chain)
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
            # What is queued before the worker runs counts as handed to it.
            self.handed[index] = queues[index].qsize()
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
    # The receive loop (a replica process's main thread)
    # ------------------------------------------------------------------
    def deliver(self, index, run):
        """Hand worker ``index`` its run, a list in stream order.

        When the worker is idle — everything handed to it is finished and
        answered — the run's leading parallel-mode commands execute here,
        on the calling thread, and are answered in one ``on_responses``
        call; the rest of the run, from its first cut or multi-group
        command on, is queued behind them.  The worker cannot start
        anything meanwhile: its queue stays empty until that put.  A busy
        worker has the whole run queued behind what it holds.  One thread
        feeds an engine's runs: it alone writes ``handed``.
        """
        if self.handed[index] == self.finished[index] and not self.crashed:
            mpl = self.mpl
            pending = []
            for _sequence, destinations, command in run:
                if (isinstance(command, dict)
                        or _cached_plan(destinations, index, mpl).mode != "parallel"):
                    break
                if isinstance(command, (bytes, bytearray)):
                    command = decode_command(command)
                try:
                    pending.append((command.uid, self._execute(command)))
                except ReplicaCrashedError:
                    return
            if pending:
                self.delivered[0] += len(pending)
                self.batches[0] += 1
                self.on_responses(pending)
                run = run[len(pending):]
        if run:
            self.handed[index] += len(run)
            self.queues[index].put_many(run)

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self, index, delivery_queue):
        """Drain delivered messages in batches and execute them in order.

        One :meth:`DeliveryQueue.get_batch` wakeup processes up to
        ``DELIVERY_BATCH_SIZE`` messages — one wake-up amortised over the
        whole run instead of paid per command.  Parallel-mode responses
        are accumulated and handed to ``on_responses`` in one batch too;
        they are always flushed before anything that can block or reorder
        — a barrier, a cut — and at the end of every drained
        batch, so a closed-loop client is never left waiting on a response
        this thread is sitting on.  Only then is the batch counted
        ``finished``: from that point :meth:`deliver` may run the group's
        next commands on the receive loop.
        """
        mpl = self.mpl
        barrier = self.barrier
        timeout = self.barrier_timeout
        finished = self.finished
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
                        self._handle_cut(sequence, command)
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
                    elif plan.mode != "ignore":  # synchronous mode
                        self._flush_responses(pending)
                        uid = command.uid
                        if barrier.arrive(uid, len(plan.peers) + 1, timeout):
                            try:
                                self.on_responses([(uid, self._execute(command))])
                            finally:
                                barrier.release(uid)
                    # plan.mode == "ignore": not a destination; nothing to do.
                except ReplicaCrashedError:
                    return
            self._flush_responses(pending)
            finished[index] += len(batch)

    def _flush_responses(self, pending):
        """Report accumulated parallel-mode responses at once."""
        if pending:
            self.on_responses(pending)
            pending.clear()

    def _execute(self, command):
        """Apply one command; return the response (the caller reports it).

        A :data:`~repro.core.command.BATCH` command applies its calls in
        order, each as a command of the batch's uid, and is answered once,
        with ``[(value, error), ...]``: the plan that runs it is the one
        its destinations name, like any other command's.
        """
        if command.name == BATCH:
            apply = self._apply
            uid = command.uid
            answers = []
            for name, args in command.args["calls"]:
                answer = apply(Command(uid, name, args))
                answers.append((answer.value, answer.error))
            response = Response(uid, answers)
        else:
            response = self._apply(command)
        if self.crashed:
            raise ReplicaCrashedError("replica crashed before replying")
        response.replica_id = self.replica_id
        return response

    def _apply(self, command):
        """``service.apply``: an exception it raises is the command's
        error response, naming its type, and the worker goes on — every
        replica meets the same exception at the same point of its stream.
        """
        try:
            return self.service.apply(command)
        except ReplicaCrashedError:
            raise
        except Exception as exc:
            return Response(command.uid, error=f"{type(exc).__name__}: {exc}")

    def _handle_cut(self, sequence, cut):
        """Synchronous-mode execution of a cut, and its report.

        Every worker arrives at the cut's barrier; the last to arrive runs
        the cut while the others are parked, so the service reflects
        exactly the commands sequenced before it.

        A shard-map update is only its barrier: once it completes, a moved
        key's old group has executed everything ordered before the switch
        and its new group starts on what is ordered after it.  Every
        replica reports it; no state moves, because every replica already
        holds all of it.  A checkpoint marker with a concrete ``source``
        is materialised by that replica only — the others pay just the
        barrier, which is what makes the cut consistent cluster-wide
        without N copies of the state; with ``source=None`` (a *periodic*
        marker) every replica takes a local checkpoint and keeps the state
        to itself.  A snapshot or write that fails, whatever it raises, is
        reported as the ``error``; the barrier completes and the workers go
        on either way.
        """
        uid = ("__cut__", cut["cut"])
        if not self.barrier.arrive(uid, self.mpl, self.barrier_timeout):
            return
        try:
            source = cut["source"]
            if cut["shard"] or source in (None, self.replica_id):
                report = {"t": "c", "cut": cut["cut"], "sequence": sequence,
                          "error": None}
                if cut["shard"]:
                    report["kind"] = "shard"
                else:
                    try:
                        report.update(self._checkpoint(sequence, source))
                    except ReplicaCrashedError:
                        raise
                    except Exception as exc:
                        report["error"] = f"replica {self.replica_id}: {exc!r}"
                with self._counter_lock:
                    report["boundary"] = self.boundary_violations
                self.on_cut_done(report)
        finally:
            self.barrier.release(uid)

    def _checkpoint(self, sequence, source):
        """Snapshot the service at a cut, as the report's fields.

        A delta is taken when the policy allows more deltas on the current
        chain and the service supports delta checkpoints; otherwise (and
        always for a source marker, whose state is handed out) a full
        snapshot starts a new chain and resets the service's delta
        tracking, so the next delta is relative to this base.  Every
        worker of the replica is parked at the cut while this runs, so it
        takes the payload and writes it, and never walks it.
        """
        policy = self.policy
        take_delta = (
            source is None
            and self.chain
            and not self._rebase
            and policy is not None
            # The chain is one full base and the deltas taken since.
            and not policy.take_full(len(self.chain) - 1)
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
        else:
            entry = {
                "kind": "full",
                "sequence": sequence,
                "payload": self.service.checkpoint(),
            }
            if hasattr(self.service, "reset_delta_tracking"):
                self.service.reset_delta_tracking()
            self._set_chain([entry])
        self._rebase = False
        return {
            "kind": entry["kind"],
            # Only a source marker (recovery transfer) hands its state
            # out; a periodic checkpoint stays local.
            "state": entry["payload"] if source is not None else None,
        }

    # ------------------------------------------------------------------
    # Management (any thread)
    # ------------------------------------------------------------------
    def stats(self):
        """Execution counters and the undrained backlog of the workers;
        ``inline`` / ``inline_delivered`` are the runs the receive loop
        executed itself and their commands (included in ``batches`` /
        ``delivered``)."""
        with self._counter_lock:
            boundary = self.boundary_violations
        return {
            "executed": getattr(self.service, "commands_executed", 0),
            "queued": sum(q.qsize() for q in self.queues.values()),
            "delivered": sum(self.delivered),
            "batches": sum(self.batches),
            "inline": self.batches[0],
            "inline_delivered": self.delivered[0],
            "boundary": boundary,
        }

    def snapshot(self):
        return self.service.snapshot() if self.service is not None else None

    def chain_suffix(self, after):
        """The chain entries after the cut ``after``, or ``None`` when the
        cut is not (or no longer — a full snapshot starts a new chain) on
        this chain.  ``self.chain`` is only ever replaced whole, so one
        read of it is a consistent chain without a lock."""
        chain = self.chain
        for position, entry in enumerate(chain):
            if entry["sequence"] == after:
                return chain[position + 1:]
        return None

