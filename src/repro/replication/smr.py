"""Simulated deployment of classic state-machine replication (SMR).

One multicast group totally orders every command; each replica runs a
single thread that delivers and executes commands sequentially (paper
section III).  No C-Dep or C-G is needed.
"""

from repro.replication.base import BaseSystem, SimStream, StreamInbox
from repro.replication.costmodel import KeyCache


class SmrReplica:
    """A single-threaded replica executing the totally ordered command stream."""

    def __init__(self, system, replica_id):
        self.system = system
        self.env = system.env
        self.costs = system.config.costs
        self.profile = system.profile
        self.replica_id = replica_id
        self.cache = KeyCache(system.config.costs.cache_size)
        self.state = None
        if system.execute_state and system.state_factory is not None:
            self.state = system.state_factory()
        self.cpu_name = f"server{replica_id}/worker1"
        self.inbox = StreamInbox(system.env, stream_ids=[0], policy="timestamp")
        self.executed = 0
        system.env.process(self._run(), name=f"smr-r{replica_id}")

    def _run(self):
        while True:
            batches = self.inbox.drain()
            if not batches:
                yield self.inbox.wait()
                continue
            for batch in batches:
                yield from self._process_batch(batch)

    def _process_batch(self, batch):
        chunk = []
        total = 0.0
        for command in batch.commands:
            cost = self.costs.delivery + self.profile.execute_cost(command, self.cache)
            total += cost
            chunk.append((command, total))
        start = self.env.now
        if total > 0:
            yield self.env.timeout(total)
            self.system.cpu.charge(self.cpu_name, total, self.env.now)
        for command, offset in chunk:
            value = None
            if self.state is not None:
                response = self.state.apply(command)
                value = response.value if response.error is None else response.error
            self.executed += 1
            self.system.clients.deliver_response(command.uid, start + offset, value)


class SMRSystem(BaseSystem):
    """Classic SMR: sequential delivery, sequential execution."""

    name = "SMR"

    def __init__(self, config, generator, profile, execute_state=False, state_factory=None):
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
        for replica_id in range(self.config.num_replicas):
            replica = SmrReplica(self, replica_id)
            self.stream.subscribe(replica.inbox)
            self.replicas.append(replica)

    def submit(self, command):
        command.destinations = frozenset({1})
        self.stream.submit(command)

    def threads_per_server(self):
        return 1

    def replica_state(self, replica_id=0):
        return self.replicas[replica_id].state
