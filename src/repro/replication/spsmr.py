"""Simulated deployment of semi-parallel state-machine replication (sP-SMR).

One multicast group totally orders every command (as in classic SMR), but
each replica runs a scheduler thread plus a pool of worker threads (paper
sections III and VI-B):

* the scheduler delivers the single command stream and dispatches
  independent commands to worker threads, balancing load dynamically;
* commands that depend on a command in flight are sent to the same worker;
* a command that depends on everything (e.g. B+-tree inserts/deletes) makes
  the scheduler wait for all workers to finish their ongoing work, then
  executes alone before dispatching resumes.

The scheduler is the single point every command passes through, which is
exactly the bottleneck the paper identifies.
"""

from repro.common.errors import ProtocolError
from repro.core.descriptor import Keyed, Serial
from repro.replication.base import BaseSystem, SimStream, StreamInbox
from repro.replication.costmodel import KeyCache
from repro.sim import Event, Store


class SchedulerReplica:
    """One scheduler-plus-workers server (used by sP-SMR and no-rep)."""

    def __init__(self, system, server_id, num_workers, spec, ordered=True):
        self.system = system
        self.env = system.env
        self.costs = system.config.costs
        self.profile = system.profile
        self.spec = spec
        self.server_id = server_id
        self.num_workers = num_workers
        #: Whether commands arrive through atomic multicast (sP-SMR) or
        #: straight from clients (no-rep); the scheduler pays a per-command
        #: delivery cost only in the ordered case.
        self.ordered = ordered
        #: Memory contention grows with the number of worker threads; the
        #: scheduler's own work is queue manipulation and is not scaled.
        self.scale = self.costs.contention_factor(num_workers)
        self.cache = KeyCache(self.costs.cache_size)
        self.state = None
        if system.execute_state and system.state_factory is not None:
            self.state = system.state_factory()

        self.inbox = StreamInbox(system.env, stream_ids=[0], policy="timestamp")
        self._direct_pending = []
        self._direct_wake = None
        self.queues = [Store(system.env) for _ in range(num_workers)]
        self.inflight = [0] * num_workers
        self.outstanding = 0
        self._drain_waiter = None
        self._key_owner = {}
        self._command_keys = {}
        self.scheduled = 0
        self.executed = 0

        self.scheduler_cpu = f"server{server_id}/scheduler"
        system.env.process(self._scheduler_loop(), name=f"sched-s{server_id}")
        for index in range(num_workers):
            system.env.process(
                self._worker_loop(index), name=f"sched-s{server_id}-w{index}"
            )

    # ------------------------------------------------------------------
    # Ingress: the stream feeds ``inbox`` (sP-SMR), or ``push`` (no-rep)
    # ------------------------------------------------------------------
    def push(self, command):
        """Direct (unordered) submission used by the no-rep deployment."""
        self._direct_pending.append(command)
        if self._direct_wake is not None and not self._direct_wake.triggered:
            self._direct_wake.succeed()

    def _next_commands(self):
        """Return the next runnable list of commands, or None when idle."""
        if self.ordered:
            batches = self.inbox.drain()
            if not batches:
                return None
            commands = []
            for batch in batches:
                commands.extend(batch.commands)
            return commands
        if not self._direct_pending:
            return None
        commands, self._direct_pending = self._direct_pending, []
        return commands

    def _wait_for_input(self):
        if self.ordered:
            return self.inbox.wait()
        self._direct_wake = Event(self.env)
        return self._direct_wake

    # ------------------------------------------------------------------
    # Scheduler thread
    # ------------------------------------------------------------------
    #: Maximum number of commands whose scheduling cost is charged as one
    #: simulated CPU burst; keeps the dispatch pipeline smooth instead of
    #: alternating between huge dispatch bursts and long sleeps.
    DISPATCH_QUANTUM = 64

    def _scheduler_loop(self):
        costs = self.costs
        while True:
            commands = self._next_commands()
            if not commands:
                yield self._wait_for_input()
                continue
            chunk = []
            chunk_cost = 0.0
            for command in commands:
                self.scheduled += 1
                routing = self.spec.routing(command.name)
                if isinstance(routing, Serial):
                    # Dispatch what was scheduled so far, then serialise:
                    # drain the workers and run the command alone.
                    if chunk or chunk_cost > 0:
                        yield from self._dispatch_chunk(chunk, chunk_cost)
                        chunk, chunk_cost = [], 0.0
                    yield from self._run_serial(command)
                    continue
                cost = self.profile.scheduler_cost(command, self.num_workers)
                if self.ordered:
                    cost += costs.delivery
                chunk_cost += cost
                chunk.append(command)
                if len(chunk) >= self.DISPATCH_QUANTUM:
                    yield from self._dispatch_chunk(chunk, chunk_cost)
                    chunk, chunk_cost = [], 0.0
            if chunk or chunk_cost > 0:
                yield from self._dispatch_chunk(chunk, chunk_cost)

    def _dispatch_chunk(self, chunk, chunk_cost):
        """Charge the scheduling CPU for a run of commands, then dispatch them."""
        if chunk_cost > 0:
            yield self.env.timeout(chunk_cost)
            self.system.cpu.charge(self.scheduler_cpu, chunk_cost, self.env.now)
        for command in chunk:
            worker = self._choose_worker(command, self.spec.routing(command.name))
            self._dispatch(worker, command, None)

    def _run_serial(self, command):
        """Dependent-on-everything command: drain the pool, execute alone."""
        costs = self.costs
        if self.outstanding > 0:
            self._drain_waiter = Event(self.env)
            yield self._drain_waiter
        sync_cost = (
            self.profile.scheduler_cost(command, self.num_workers)
            + (costs.delivery if self.ordered else 0.0)
            + costs.scheduler_drain
            + 2 * costs.signal
        )
        yield self.env.timeout(sync_cost)
        self.system.cpu.charge(self.scheduler_cpu, sync_cost, self.env.now)
        done = Event(self.env)
        self._dispatch(0, command, done)
        yield done

    def _choose_worker(self, command, routing):
        """Dynamic load balancing with dependency tracking (paper section IV-D)."""
        key = None
        if isinstance(routing, Keyed) and self.spec.writes(command.name):
            key = (routing.domain, routing.extractor(command.args))
        elif isinstance(routing, Keyed):
            key = (routing.domain, routing.extractor(command.args))
        if key is not None:
            owner = self._key_owner.get(key)
            if owner is not None:
                owner[1] += 1
                self._command_keys[command.uid] = key
                return owner[0]
        worker = min(range(self.num_workers), key=lambda w: self.inflight[w])
        if key is not None:
            self._key_owner[key] = [worker, 1]
            self._command_keys[command.uid] = key
        return worker

    def _dispatch(self, worker, command, done):
        self.inflight[worker] += 1
        self.outstanding += 1
        self.queues[worker].put((command, done))

    def _on_complete(self, worker, command):
        self.inflight[worker] -= 1
        self.outstanding -= 1
        key = self._command_keys.pop(command.uid, None)
        if key is not None:
            owner = self._key_owner.get(key)
            if owner is not None:
                owner[1] -= 1
                if owner[1] <= 0:
                    del self._key_owner[key]
        if self.outstanding == 0 and self._drain_waiter is not None:
            waiter, self._drain_waiter = self._drain_waiter, None
            if not waiter.triggered:
                waiter.succeed()

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker_loop(self, index):
        queue = self.queues[index]
        cpu_name = f"server{self.server_id}/worker{index + 1}"
        while True:
            first = yield queue.get()
            items = [first]
            while True:
                more = queue.get_nowait()
                if more is None:
                    break
                items.append(more)
            total = 0.0
            plan = []
            for command, done in items:
                cost = (
                    self.costs.delivery + self.profile.execute_cost(command, self.cache)
                ) * self.scale
                total += cost
                plan.append((command, done, total))
            start = self.env.now
            if total > 0:
                yield self.env.timeout(total)
                self.system.cpu.charge(cpu_name, total, self.env.now)
            for command, done, offset in plan:
                value = None
                if self.state is not None:
                    response = self.state.apply(command)
                    value = response.value if response.error is None else response.error
                self.executed += 1
                self.system.clients.deliver_response(command.uid, start + offset, value)
                self._on_complete(index, command)
                if done is not None:
                    if done.triggered:
                        raise ProtocolError("serial command completed twice")
                    done.succeed()


class SPSMRSystem(BaseSystem):
    """Semi-parallel SMR: total order + scheduler + worker pool."""

    name = "sP-SMR"

    def __init__(self, config, generator, profile, spec, workers=None,
                 execute_state=False, state_factory=None):
        self.spec = spec
        self._workers = workers if workers is not None else config.mpl
        super().__init__(
            config,
            generator,
            profile,
            execute_state=execute_state,
            state_factory=state_factory,
        )

    def build(self):
        self.stream = SimStream(
            env=self.env,
            stream_id=0,
            multicast_config=self.config.multicast,
            costs=self.config.costs,
            rng=self.rng.child("stream", 0),
            cpu=self.cpu,
            name="g0",
        )
        self.replicas = []
        for server_id in range(self.config.num_replicas):
            replica = SchedulerReplica(
                system=self,
                server_id=server_id,
                num_workers=self._workers,
                spec=self.spec,
                ordered=True,
            )
            self.stream.subscribe(replica.inbox)
            self.replicas.append(replica)

    def submit(self, command):
        command.destinations = frozenset({1})
        self.stream.submit(command)

    def threads_per_server(self):
        """Worker threads, excluding the scheduler (the paper's convention)."""
        return self._workers

    def replica_state(self, replica_id=0):
        return self.replicas[replica_id].state
