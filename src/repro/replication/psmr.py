"""Simulated deployment of Parallel State-Machine Replication (P-SMR).

Structure (paper sections IV and VI-A):

* the client proxy computes the destination groups of each command with the
  C-G function and multicasts the request;
* each multicast group is an independent Paxos stream (:class:`SimStream`);
* every replica runs ``mpl`` worker threads; thread ``t_i`` subscribes to
  its own group ``g_i`` and to the shared ``g_all`` stream, merging them
  deterministically;
* commands addressed to a single group execute in parallel mode; commands
  addressed to several groups execute in synchronous mode behind a barrier
  with the other destination threads.
"""

from repro.core.protocol import plan_execution
from repro.core.cg import CGFunction
from repro.multicast.group import GroupLayout
from repro.replication.base import BarrierBoard, BaseSystem, SimStream, StreamInbox
from repro.replication.costmodel import KeyCache


class PsmrWorker:
    """One worker thread of one P-SMR replica (Algorithm 1, server side)."""

    def __init__(self, system, replica_id, index, barrier, cache, state):
        self.system = system
        self.env = system.env
        self.costs = system.config.costs
        self.profile = system.profile
        self.replica_id = replica_id
        self.index = index
        self.mpl = system.config.mpl
        self.barrier = barrier
        self.cache = cache
        self.state = state
        self.scale = self.costs.contention_factor(self.mpl)
        self.cpu_name = f"server{replica_id}/worker{index}"
        self.inbox = StreamInbox(
            system.env,
            stream_ids=system.layout.subscriptions_of_thread(index),
            policy=system.merge_policy,
        )
        self.executed = 0
        system.env.process(self._run(), name=f"psmr-r{replica_id}-t{index}")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            batches = self.inbox.drain()
            if not batches:
                yield self.inbox.wait()
                continue
            for batch in batches:
                yield from self._process_batch(batch)

    def _process_batch(self, batch):
        via_all = batch.group_id == GroupLayout.ALL_STREAM_ID
        costs = self.costs
        chunk = []
        chunk_cost = 0.0
        delivery = costs.delivery
        for command in batch.commands:
            destinations = command.destinations
            if (
                not via_all
                and isinstance(destinations, frozenset)
                and len(destinations) == 1
            ):
                # Fast path for the common case: a single-group command
                # delivered on this thread's own stream is parallel mode.
                cost = (
                    delivery + self.profile.execute_cost(command, self.cache)
                ) * self.scale
                chunk_cost += cost
                chunk.append((command, chunk_cost))
                continue
            plan = plan_execution(destinations, self.index, self.mpl)
            if plan.mode == "parallel":
                cost = delivery + self.profile.execute_cost(command, self.cache)
                if via_all:
                    cost += costs.merge_overhead
                chunk_cost += cost * self.scale
                chunk.append((command, chunk_cost))
            elif plan.mode == "ignore":
                chunk_cost += delivery * self.scale
            else:
                if chunk or chunk_cost > 0:
                    yield from self._flush_chunk(chunk, chunk_cost)
                    chunk = []
                    chunk_cost = 0.0
                yield from self._synchronous_command(command, plan)
        if chunk or chunk_cost > 0:
            yield from self._flush_chunk(chunk, chunk_cost)

    def _flush_chunk(self, chunk, total_cost):
        """Execute a run of parallel-mode commands as one simulated CPU burst."""
        start = self.env.now
        if total_cost > 0:
            yield self.env.timeout(total_cost)
            self.system.cpu.charge(self.cpu_name, total_cost, self.env.now)
        for command, offset in chunk:
            value = self._apply(command)
            self.executed += 1
            self.system.clients.deliver_response(command.uid, start + offset, value)

    def _synchronous_command(self, command, plan):
        """Synchronous execution mode: barrier with the other destination threads."""
        costs = self.costs
        if plan.mode == "assist":
            cost = (costs.delivery + costs.merge_overhead) * self.scale + costs.signal
            yield self.env.timeout(cost)
            self.system.cpu.charge(self.cpu_name, cost, self.env.now)
            self.barrier.signal(command.uid, self.index)
            yield self.barrier.done_event(command.uid)
            return

        # Executor (lowest-indexed destination thread).
        delivery_cost = (costs.delivery + costs.merge_overhead) * self.scale
        yield self.env.timeout(delivery_cost)
        self.system.cpu.charge(self.cpu_name, delivery_cost, self.env.now)
        ready = self.barrier.expect(command.uid, plan.peers)
        yield ready
        execute_cost = (
            self.profile.execute_cost(command, self.cache) * self.scale
            + 2 * len(plan.peers) * costs.signal
        )
        yield self.env.timeout(execute_cost)
        self.system.cpu.charge(self.cpu_name, execute_cost, self.env.now)
        value = self._apply(command)
        self.executed += 1
        self.system.clients.deliver_response(command.uid, self.env.now, value)
        self.barrier.complete(command.uid, self.env.now)

    def _apply(self, command):
        if self.state is None:
            return None
        response = self.state.apply(command)
        return response.value if response.error is None else response.error


class PSMRSystem(BaseSystem):
    """The full simulated P-SMR deployment (clients, streams, replicas)."""

    name = "P-SMR"

    def __init__(self, config, generator, profile, spec, coarse_cg=False,
                 merge_policy=None, execute_state=False, state_factory=None):
        self.spec = spec
        self.coarse_cg = coarse_cg
        self._merge_policy_override = merge_policy
        super().__init__(
            config,
            generator,
            profile,
            execute_state=execute_state,
            state_factory=state_factory,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self):
        config = self.config
        self.merge_policy = self._merge_policy_override or config.multicast.merge_policy
        self.layout = GroupLayout(config.mpl)
        self.cg = CGFunction(self.spec, config.mpl, seed=config.seed, coarse=self.coarse_cg)
        self.streams = {}
        for stream_id in self.layout.stream_ids:
            self.streams[stream_id] = SimStream(
                env=self.env,
                stream_id=stream_id,
                multicast_config=config.multicast,
                costs=config.costs,
                rng=self.rng.child("stream", stream_id),
                cpu=self.cpu,
                name=f"g{stream_id}" if stream_id else "g_all",
            )
        self.replicas = []
        for replica_id in range(config.num_replicas):
            barrier = BarrierBoard(self.env)
            cache = KeyCache(config.costs.cache_size)
            state = None
            if self.execute_state and self.state_factory is not None:
                state = self.state_factory()
            workers = []
            for index in range(1, config.mpl + 1):
                worker = PsmrWorker(
                    system=self,
                    replica_id=replica_id,
                    index=index,
                    barrier=barrier,
                    cache=cache,
                    state=state,
                )
                for stream_id in self.layout.subscriptions_of_thread(index):
                    self.streams[stream_id].subscribe(worker.inbox)
                workers.append(worker)
            self.replicas.append({"workers": workers, "barrier": barrier, "state": state})

    # ------------------------------------------------------------------
    # Client proxy (Algorithm 1, lines 1-6)
    # ------------------------------------------------------------------
    def submit(self, command):
        gamma = self.cg.groups_for(command.name, command.args)
        command.destinations = gamma
        stream_id = self.layout.stream_for_destinations(gamma)
        self.streams[stream_id].submit(command)

    def threads_per_server(self):
        return self.config.mpl

    def replica_state(self, replica_id=0):
        """The service state machine of one replica (when ``execute_state``)."""
        return self.replicas[replica_id]["state"]
