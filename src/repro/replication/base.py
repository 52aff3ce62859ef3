"""Shared machinery of the simulated deployments.

Pieces used by every technique:

* :class:`ClientPool` — closed-loop clients with a window of outstanding
  commands (the paper's clients keep up to 50 requests in flight);
* :class:`SimStream` — one multicast group: batcher + a cost model of the
  group's Paxos ordering + delivery to subscribers.  A batch reaches each
  subscriber one Paxos round trip after it is proposed (3 one-way
  ``net_latency`` hops plus up to ``net_jitter``), and the coordinator is
  busy for the batch's NIC time plus ``coordinator_batch_cpu``.  No Paxos
  code runs: with a stable leader and no failures, as in this simulator,
  Paxos decides every proposal, so a batch is delivered as proposed;
* :class:`StreamInbox` — subscriber-side deterministic merge plus wake-up;
* :class:`BarrierBoard` — per-replica signalling between worker threads for
  P-SMR's synchronous execution mode;
* :class:`BaseSystem` — the experiment-facing ``run()`` skeleton shared by
  every technique.
"""

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import SeededRNG
from repro.core.command import Command
from repro.metrics import CpuAccountant, ExperimentResult, LatencyRecorder, ThroughputMeter
from repro.multicast.batcher import Batcher
from repro.multicast.merge import MergeBuffer
from repro.sim import Environment, Event, Store


def call_after(env, delay, callback):
    """Schedule ``callback()`` to run ``delay`` seconds from now (one event)."""
    timer = env.timeout(delay)
    timer.callbacks.append(lambda _event: callback())
    return timer


class ClientPool:
    """Closed-loop clients: each keeps ``window`` commands outstanding.

    Responses may arrive from several replicas; only the first one completes
    the command (the client proxy of the paper returns a single response to
    the application).  Completing a command immediately submits a new one.
    """

    def __init__(self, env, generator, submit_fn, num_clients, window, costs):
        if num_clients < 1 or window < 1:
            raise ConfigurationError("clients and window must be >= 1")
        self.env = env
        self.generator = generator
        self.submit_fn = submit_fn
        self.num_clients = num_clients
        self.window = window
        self.costs = costs
        self.latency = LatencyRecorder()
        self.throughput = ThroughputMeter()
        self._sequences = [0] * num_clients
        self._outstanding = {}
        self.submitted = 0
        #: When True, completed commands are not replaced by new ones (used
        #: to quiesce the system at the end of a run).
        self.stopped = False

    def start(self):
        """Submit the initial window of every client."""
        for client_id in range(self.num_clients):
            for _ in range(self.window):
                self._submit_new(client_id)

    def outstanding(self):
        return len(self._outstanding)

    def _submit_new(self, client_id):
        name, args, size = self.generator.next_invocation()
        sequence = self._sequences[client_id]
        self._sequences[client_id] += 1
        command = Command(
            uid=(client_id, sequence),
            name=name,
            args=args,
            size_bytes=size,
            submitted_at=self.env.now,
        )
        self._outstanding[command.uid] = command
        self.submitted += 1
        self.submit_fn(command)

    def deliver_response(self, uid, completed_at, value=None):
        """Handle a response from a replica; duplicates are ignored."""
        command = self._outstanding.pop(uid, None)
        if command is None:
            return
        # The request hop (client -> coordinator) and the response hop
        # (replica -> client) are accounted analytically rather than as
        # simulation events, to keep the event count per command low.
        latency = completed_at - command.submitted_at + 2 * self.costs.net_latency
        self.throughput.record_completion(completed_at)
        window_start = self.throughput.window_start
        window_end = self.throughput.window_end
        if (
            window_start is not None
            and completed_at >= window_start
            and (window_end is None or completed_at <= window_end)
        ):
            self.latency.record(latency)
        if not self.stopped:
            self._submit_new(uid[0])


class SimStream:
    """One multicast group: Paxos-ordered batches delivered to subscribers.

    Ordering is a cost model of the paper's per-group Paxos instance
    (section VI-A).  A batch is delivered one Paxos round trip after it is
    proposed: 3 one-way ``net_latency`` hops plus a uniform draw of up to
    ``net_jitter`` per subscriber.  The coordinator is occupied for the
    batch's NIC transmission time plus ``coordinator_batch_cpu``, which
    bounds the stream's throughput.  With a stable leader and no failures,
    as in this simulator, Paxos decides every proposal, so the decided
    batch is the proposed one and no Paxos code needs to run.

    Subscribers are :class:`StreamInbox` objects (anything with ``offer``
    and ``offer_skip``).
    """

    def __init__(self, env, stream_id, multicast_config, costs, rng, cpu=None, name=None):
        self.env = env
        self.stream_id = stream_id
        self.config = multicast_config
        self.costs = costs
        self.cpu = cpu
        self.name = name or f"stream{stream_id}"
        self._rng = rng
        self.batcher = Batcher(
            group_id=stream_id,
            max_bytes=multicast_config.batch_max_bytes,
            max_commands=multicast_config.batch_max_commands,
            timeout=multicast_config.batch_timeout,
        )
        self.subscribers = []
        self._ready = Store(env)
        self._flush_scheduled = False
        self._last_delivery_at = {}
        self._last_activity = 0.0
        self.commands_submitted = 0
        env.process(self._order_loop(), name=f"{self.name}-coordinator")
        env.process(self._skip_loop(), name=f"{self.name}-skips")

    def subscribe(self, subscriber):
        """Register a subscriber exposing ``offer()`` and ``offer_skip()``."""
        self.subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Client-facing side
    # ------------------------------------------------------------------
    def submit(self, command):
        """Queue a command for ordering on this stream."""
        self.commands_submitted += 1
        batch = self.batcher.add(command, command.size_bytes, self.env.now)
        if batch is not None:
            self._seal(batch)
        elif not self._flush_scheduled and len(self.batcher) > 0:
            self._schedule_flush()

    def _schedule_flush(self):
        self._flush_scheduled = True
        call_after(self.env, self.batcher.timeout, self._flush_check)

    def _flush_check(self):
        self._flush_scheduled = False
        if self.batcher.should_flush(self.env.now):
            batch = self.batcher.flush()
            if batch is not None:
                self._seal(batch)
        elif len(self.batcher) > 0:
            self._schedule_flush()

    def _seal(self, batch):
        """Hand a sealed batch to the coordinator.

        Marks the stream active at once: the coordinator takes the batch
        out of ``_ready`` in a later event of the same instant, and a skip
        allocated in between would get a higher sequence number than the
        batch yet reach subscribers before it.
        """
        self._last_activity = self.env.now
        self._ready.put(batch)

    # ------------------------------------------------------------------
    # Ordering (one Paxos round per batch, as a cost model)
    # ------------------------------------------------------------------
    def _order_loop(self):
        while True:
            batch = yield self._ready.get()
            # The batch's merge timestamp is its ordering (proposal) time so
            # that per-stream timestamps stay monotonic; the Paxos round trip
            # only delays delivery, it does not change the decided order.
            timestamp = self.env.now
            self._last_activity = timestamp
            self._deliver(batch, timestamp)
            # The coordinator is occupied for the batch's NIC transmission
            # plus its Paxos bookkeeping; consecutive rounds are pipelined,
            # so the occupancy (not the round-trip latency) bounds throughput.
            occupancy = (
                batch.size_bytes / self.costs.nic_bandwidth
                + self.costs.coordinator_batch_cpu
            )
            if self.cpu is not None:
                self.cpu.charge(f"{self.name}/coordinator", occupancy, self.env.now)
            yield self.env.timeout(occupancy)

    #: Minimum spacing between two deliveries on the same link.  Keeps the
    #: per-link FIFO clamp strictly increasing so floating-point rounding in
    #: the scheduler can never reorder two back-to-back deliveries.
    _LINK_FIFO_EPSILON = 1e-9

    def _deliver(self, batch, timestamp):
        """Send the decided batch to every subscriber over FIFO links.

        Delivery happens one Paxos round trip (coordinator -> acceptors ->
        coordinator) plus one hop (coordinator -> replica) after the batch
        was proposed.
        """
        for index, subscriber in enumerate(self.subscribers):
            delay = (
                3 * self.costs.net_latency
                + self._rng.uniform(0, self.costs.net_jitter)
            )
            deliver_at = max(
                timestamp + delay,
                self._last_delivery_at.get(index, 0.0) + self._LINK_FIFO_EPSILON,
            )
            self._last_delivery_at[index] = deliver_at
            call_after(
                self.env,
                deliver_at - self.env.now,
                lambda s=subscriber, b=batch, t=timestamp: s.offer(
                    self.stream_id, b.sequence, t, b
                ),
            )

    def _skip_loop(self):
        """Emit skip messages while the stream is idle (Multi-Ring Paxos style).

        Skips advance the subscribers' merge horizons so that commands from
        busy streams are not held back waiting for an idle stream.
        """
        while True:
            yield self.env.timeout(self.config.skip_interval)
            if (
                self.env.now - self._last_activity < self.config.skip_interval
                or len(self._ready) > 0
                or len(self.batcher) > 0
            ):
                # Not idle: batches already sealed (or about to be) carry
                # lower sequence numbers than a skip allocated now would,
                # so emitting one could reorder the stream at subscribers.
                continue
            timestamp = self.env.now
            sequence = self.batcher.allocate_skip_sequence()
            for index, subscriber in enumerate(self.subscribers):
                delay = self.costs.net_latency
                deliver_at = max(
                    self.env.now + delay,
                    self._last_delivery_at.get(index, 0.0) + self._LINK_FIFO_EPSILON,
                )
                self._last_delivery_at[index] = deliver_at
                call_after(
                    self.env,
                    deliver_at - self.env.now,
                    lambda s=subscriber, q=sequence, t=timestamp: s.offer_skip(
                        self.stream_id, q, t
                    ),
                )


class StreamInbox:
    """Subscriber-side merge buffer plus a wake-up event for the owning process."""

    def __init__(self, env, stream_ids, policy="timestamp"):
        self.env = env
        self.merge = MergeBuffer(stream_ids, policy=policy)
        self._wake = None

    def offer(self, stream_id, sequence, timestamp, batch):
        self.merge.offer(stream_id, sequence, timestamp, batch)
        self._notify()

    def offer_skip(self, stream_id, sequence, timestamp):
        self.merge.offer_skip(stream_id, sequence, timestamp)
        self._notify()

    def _notify(self):
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def wait(self):
        """Return an event that fires when new input may be deliverable."""
        self._wake = Event(self.env)
        return self._wake

    def drain(self):
        """Return the batches that are deliverable right now, in order."""
        return self.merge.pop_deliverable()


class BarrierBoard:
    """Synchronous-mode signalling between the worker threads of one replica.

    Implements the two signals of Figure 2: non-executor threads ``signal``
    the executor (signal *a*) and wait on the command's ``done`` event;
    the executor waits for every peer's signal, executes, then ``complete``
    fires the done event (signal *b*).
    """

    def __init__(self, env):
        self.env = env
        self._states = {}

    def _state(self, uid):
        state = self._states.get(uid)
        if state is None:
            state = {
                "signals": set(),
                "expected": None,
                "ready": Event(self.env),
                "done": Event(self.env),
            }
            self._states[uid] = state
        return state

    def signal(self, uid, thread_index):
        """A non-executor thread announces it reached the barrier for ``uid``."""
        state = self._state(uid)
        state["signals"].add(thread_index)
        self._maybe_ready(state)

    def expect(self, uid, peers):
        """The executor declares the peers it waits for; returns the ready event."""
        state = self._state(uid)
        state["expected"] = set(peers)
        self._maybe_ready(state)
        return state["ready"]

    def _maybe_ready(self, state):
        if (
            state["expected"] is not None
            and state["expected"] <= state["signals"]
            and not state["ready"].triggered
        ):
            state["ready"].succeed()

    def done_event(self, uid):
        """The event non-executor threads wait on until the executor finishes."""
        return self._state(uid)["done"]

    def complete(self, uid, when):
        """The executor finished ``uid``: release every waiting peer."""
        state = self._states.pop(uid, None)
        if state is None:
            raise ProtocolError(f"barrier completed twice for {uid}")
        state["done"].succeed(when)

    def pending(self):
        return len(self._states)


class BaseSystem:
    """Skeleton shared by every simulated technique."""

    name = "base"

    def __init__(self, config: ClusterConfig, generator, profile, execute_state=False,
                 state_factory=None):
        config.validate()
        self.config = config
        self.generator = generator
        self.profile = profile
        self.execute_state = execute_state
        self.state_factory = state_factory
        self.env = Environment()
        self.cpu = CpuAccountant()
        self.rng = SeededRNG(config.seed).child("system", self.name)
        self.clients = ClientPool(
            env=self.env,
            generator=generator,
            submit_fn=self.submit,
            num_clients=config.num_clients,
            window=config.client_window,
            costs=config.costs,
        )
        self.build()

    # ------------------------------------------------------------------
    # Hooks implemented by each technique
    # ------------------------------------------------------------------
    def build(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def submit(self, command):  # pragma: no cover - overridden
        raise NotImplementedError

    def threads_per_server(self):
        """Worker threads per server (the 'number of threads' of Figures 5/7)."""
        raise NotImplementedError

    def cpu_prefix(self):
        """CPU accounting prefix of the first server node (for the CPU graphs)."""
        return "server0"

    def quiesce(self, grace=0.05, limit=2.0):
        """Stop the load and let every replica finish the commands in flight.

        Clients stop replacing completed commands; the simulation then runs
        until every outstanding command has a response, plus ``grace``
        seconds so slower replicas drain their delivery queues too.  Used by
        tests that compare replica states after a run.
        """
        self.clients.stopped = True
        deadline = self.env.now + limit
        while self.clients.outstanding() > 0 and self.env.now < deadline:
            if self.env.peek() is None:
                break
            self.env.step()
        self.env.run(until=self.env.now + grace)
        return self.clients.outstanding()

    # ------------------------------------------------------------------
    # Experiment driver
    # ------------------------------------------------------------------
    def run(self, warmup=0.05, duration=0.2):
        """Run warmup + measurement; return an :class:`ExperimentResult`."""
        if warmup < 0 or duration <= 0:
            raise ConfigurationError("warmup must be >= 0 and duration > 0")
        window_end = warmup + duration
        # The measurement window is declared up front so that completions and
        # CPU charges that fall into the warmup period are excluded.
        self.clients.throughput.open_window(warmup)
        self.clients.throughput.close_window(window_end)
        self.cpu.open_window(warmup)
        self.cpu.close_window(window_end)
        self.clients.start()
        self.env.run(until=window_end)
        return ExperimentResult(
            technique=self.name,
            threads=self.threads_per_server(),
            throughput_kcps=self.clients.throughput.throughput_kcps(),
            avg_latency_ms=self.clients.latency.mean() * 1000.0,
            cpu_percent=self.cpu.total_cpu_percent(prefix=self.cpu_prefix()),
            completed=self.clients.throughput.completed,
            latency_cdf=[(lat * 1000.0, frac) for lat, frac in self.clients.latency.cdf()],
            extra={"submitted": self.clients.submitted},
        )
