"""Unit tests for the shared simulation-deployment machinery."""

import pytest

from repro.common.config import CostModelConfig, MulticastConfig
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import SeededRNG
from repro.replication.base import (
    BarrierBoard,
    ClientPool,
    SimStream,
    StreamInbox,
    call_after,
)
from repro.sim import Environment


class _ScriptedGenerator:
    """A tiny deterministic workload generator for client-pool tests."""

    def __init__(self):
        self.count = 0

    def next_invocation(self):
        self.count += 1
        return "read", {"key": self.count}, 48


# ----------------------------------------------------------------------
# call_after
# ----------------------------------------------------------------------
def test_call_after_runs_callback_at_delay(env):
    fired = []
    call_after(env, 2.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.0]


# ----------------------------------------------------------------------
# ClientPool
# ----------------------------------------------------------------------
def make_pool(env, num_clients=2, window=3):
    submitted = []
    pool = ClientPool(
        env=env,
        generator=_ScriptedGenerator(),
        submit_fn=submitted.append,
        num_clients=num_clients,
        window=window,
        costs=CostModelConfig(),
    )
    return pool, submitted


def test_client_pool_rejects_bad_sizes(env):
    with pytest.raises(ConfigurationError):
        ClientPool(env, _ScriptedGenerator(), lambda c: None, 0, 1, CostModelConfig())


def test_client_pool_submits_initial_windows(env):
    pool, submitted = make_pool(env, num_clients=2, window=3)
    pool.start()
    assert len(submitted) == 6
    assert pool.outstanding() == 6
    # Every uid is unique.
    assert len({command.uid for command in submitted}) == 6


def test_client_pool_resubmits_on_completion(env):
    pool, submitted = make_pool(env, num_clients=1, window=2)
    pool.start()
    first = submitted[0]
    pool.deliver_response(first.uid, completed_at=0.001)
    assert len(submitted) == 3
    assert pool.outstanding() == 2


def test_client_pool_ignores_duplicate_responses(env):
    pool, submitted = make_pool(env, num_clients=1, window=1)
    pool.start()
    uid = submitted[0].uid
    pool.deliver_response(uid, completed_at=0.001)
    pool.deliver_response(uid, completed_at=0.002)  # from the second replica
    assert len(submitted) == 2


def test_client_pool_latency_recorded_only_inside_window(env):
    pool, submitted = make_pool(env, num_clients=1, window=4)
    pool.throughput.open_window(0.010)
    pool.throughput.close_window(0.020)
    pool.start()
    pool.deliver_response(submitted[0].uid, completed_at=0.005)   # warmup
    pool.deliver_response(submitted[1].uid, completed_at=0.015)   # measured
    pool.deliver_response(submitted[2].uid, completed_at=0.025)   # after close
    assert pool.throughput.completed == 1
    assert len(pool.latency) == 1


def test_client_pool_stops_resubmitting_when_stopped(env):
    pool, submitted = make_pool(env, num_clients=1, window=2)
    pool.start()
    pool.stopped = True
    pool.deliver_response(submitted[0].uid, completed_at=0.001)
    assert len(submitted) == 2
    assert pool.outstanding() == 1


def test_client_pool_latency_includes_network_hops(env):
    costs = CostModelConfig()
    pool, submitted = make_pool(env, num_clients=1, window=1)
    pool.throughput.open_window(0.0)
    pool.throughput.close_window(1.0)
    pool.start()
    pool.deliver_response(submitted[0].uid, completed_at=0.001)
    assert pool.latency.samples[0] == pytest.approx(0.001 + 2 * costs.net_latency)


# ----------------------------------------------------------------------
# StreamInbox
# ----------------------------------------------------------------------
def test_stream_inbox_wakes_waiter_on_offer(env):
    inbox = StreamInbox(env, [1], policy="timestamp")
    log = []

    def consumer(env, inbox):
        while True:
            batches = inbox.drain()
            if batches:
                log.extend(batches)
                return
            yield inbox.wait()

    env.process(consumer(env, inbox))
    call_after(env, 1.0, lambda: inbox.offer(1, 0, 1.0, "batch"))
    env.run()
    assert log == ["batch"]


def test_stream_inbox_skips_do_not_wake_with_items(env):
    inbox = StreamInbox(env, [0, 1], policy="timestamp")
    inbox.offer(1, 0, 5.0, "item")
    assert inbox.drain() == []          # stream 0 horizon unknown
    inbox.offer_skip(0, 0, 6.0)
    assert inbox.drain() == ["item"]
    inbox.offer_skip(0, 1, 8.0)
    assert inbox.drain() == []


def test_stream_inbox_skip_wakes_waiter(env):
    inbox = StreamInbox(env, [0, 1], policy="timestamp")
    inbox.offer(1, 0, 1.0, "item")
    woken = []

    def consumer(env, inbox):
        yield inbox.wait()
        woken.append(env.now)
        woken.extend(inbox.drain())

    env.process(consumer(env, inbox))
    call_after(env, 2.0, lambda: inbox.offer_skip(0, 0, 2.0))
    env.run()
    assert woken == [2.0, "item"]


# ----------------------------------------------------------------------
# BarrierBoard
# ----------------------------------------------------------------------
def test_barrier_executor_waits_for_all_peers(env):
    board = BarrierBoard(env)
    uid = (1, 1)
    ready = board.expect(uid, peers=(2, 3))
    assert not ready.triggered
    board.signal(uid, 2)
    assert not ready.triggered
    board.signal(uid, 3)
    assert ready.triggered


def test_barrier_signals_before_expect_are_remembered(env):
    board = BarrierBoard(env)
    uid = (1, 2)
    board.signal(uid, 2)
    board.signal(uid, 3)
    ready = board.expect(uid, peers=(2, 3))
    assert ready.triggered


def test_barrier_complete_releases_waiters_and_cleans_up(env):
    board = BarrierBoard(env)
    uid = (1, 3)
    done = board.done_event(uid)
    board.expect(uid, peers=())
    board.complete(uid, when=1.5)
    assert done.triggered
    assert done.value == 1.5
    assert board.pending() == 0


def test_barrier_double_complete_rejected(env):
    board = BarrierBoard(env)
    uid = (1, 4)
    board.expect(uid, peers=())
    board.complete(uid, when=1.0)
    with pytest.raises(ProtocolError):
        board.complete(uid, when=2.0)


def test_barrier_commands_are_independent(env):
    board = BarrierBoard(env)
    ready_a = board.expect(("a", 0), peers=(2,))
    ready_b = board.expect(("b", 0), peers=(2,))
    board.signal(("a", 0), 2)
    assert ready_a.triggered
    assert not ready_b.triggered


# ----------------------------------------------------------------------
# SimStream
# ----------------------------------------------------------------------
class _RecordingSubscriber:
    def __init__(self):
        self.batches = []
        self.skips = []

    def offer(self, stream_id, sequence, timestamp, batch):
        self.batches.append((stream_id, sequence, timestamp, batch))

    def offer_skip(self, stream_id, sequence, timestamp):
        self.skips.append((stream_id, sequence, timestamp))


def make_stream(env, **overrides):
    config = MulticastConfig(**overrides) if overrides else MulticastConfig()
    return SimStream(
        env=env,
        stream_id=1,
        multicast_config=config,
        costs=CostModelConfig(),
        rng=SeededRNG(3),
    )


def _command(uid, size=48):
    from repro.core.command import Command

    return Command(uid=uid, name="read", args={"key": uid[1]}, size_bytes=size)


def test_stream_orders_and_delivers_batches_in_sequence(env):
    stream = make_stream(env, batch_max_commands=2, batch_timeout=10e-6)
    subscriber = _RecordingSubscriber()
    stream.subscribe(subscriber)
    for index in range(6):
        stream.submit(_command((0, index)))
    env.run(until=0.01)
    sequences = [sequence for _sid, sequence, _ts, _b in subscriber.batches]
    assert sequences == sorted(sequences)
    delivered = [c.uid for _sid, _seq, _ts, batch in subscriber.batches for c in batch.commands]
    assert delivered == [(0, index) for index in range(6)]


def test_stream_flushes_partial_batches_after_timeout(env):
    stream = make_stream(env, batch_max_commands=100, batch_timeout=20e-6)
    subscriber = _RecordingSubscriber()
    stream.subscribe(subscriber)
    stream.submit(_command((0, 0)))
    env.run(until=0.005)
    assert len(subscriber.batches) == 1
    assert len(subscriber.batches[0][3].commands) == 1


def test_stream_emits_skips_when_idle(env):
    stream = make_stream(env, skip_interval=100e-6)
    subscriber = _RecordingSubscriber()
    stream.subscribe(subscriber)
    env.run(until=0.001)
    assert len(subscriber.skips) >= 5
    sequences = [sequence for _sid, sequence, _ts in subscriber.skips]
    assert sequences == sorted(sequences)


def test_stream_delivers_each_batch_one_paxos_round_after_proposal(env):
    costs = CostModelConfig()
    stream = make_stream(env, batch_max_commands=4)
    arrivals = []

    class _TimedSubscriber(_RecordingSubscriber):
        def offer(self, stream_id, sequence, timestamp, batch):
            arrivals.append((env.now, timestamp))
            super().offer(stream_id, sequence, timestamp, batch)

    subscriber = _TimedSubscriber()
    stream.subscribe(subscriber)
    for index in range(13):
        stream.submit(_command((1, index)))
    env.run(until=0.01)
    assert stream.commands_submitted == 13
    # Every submitted command arrives in exactly one batch.
    delivered = [c.uid for _sid, _seq, _ts, batch in subscriber.batches for c in batch.commands]
    assert sorted(delivered) == [(1, index) for index in range(13)]
    # Batches arrive in sequence order.
    sequences = [sequence for _sid, sequence, _ts, _b in subscriber.batches]
    assert sequences == [0, 1, 2, 3]
    # Each batch arrives one Paxos round (3 one-way hops plus jitter) after
    # its proposal, whose time is the batch's merge timestamp.
    for arrived, proposed in arrivals:
        assert 3 * costs.net_latency - 1e-12 <= arrived - proposed
        assert arrived - proposed <= 3 * costs.net_latency + costs.net_jitter + 1e-12


def test_stream_delivery_is_fifo_per_subscriber(env):
    stream = make_stream(env, batch_max_commands=1)
    first, second = _RecordingSubscriber(), _RecordingSubscriber()
    stream.subscribe(first)
    stream.subscribe(second)
    for index in range(20):
        stream.submit(_command((2, index)))
    env.run(until=0.01)
    for subscriber in (first, second):
        times = [ts for _sid, _seq, ts, _b in subscriber.batches]
        assert times == sorted(times)
        assert len(subscriber.batches) == 20


def _occupancy(size_bytes, costs):
    return size_bytes / costs.nic_bandwidth + costs.coordinator_batch_cpu


def test_stream_coordinator_occupancy_spaces_proposals(env):
    costs = CostModelConfig()
    stream = make_stream(env, batch_max_commands=1)
    subscriber = _RecordingSubscriber()
    stream.subscribe(subscriber)
    for index in range(5):
        stream.submit(_command((3, index), size=1000))
    env.run(until=0.01)
    proposed = [timestamp for _sid, _seq, timestamp, _b in subscriber.batches]
    # Batches ready at once are proposed back to back: each one waits for
    # the coordinator to finish the NIC time and bookkeeping of the last.
    step = _occupancy(1000, costs)
    assert proposed == pytest.approx([index * step for index in range(5)])


def test_stream_charges_coordinator_cpu_per_batch(env):
    from repro.metrics.recorders import CpuAccountant

    costs = CostModelConfig()
    cpu = CpuAccountant()
    stream = SimStream(
        env=env, stream_id=1, multicast_config=MulticastConfig(batch_max_commands=2),
        costs=costs, rng=SeededRNG(3), cpu=cpu,
    )
    stream.subscribe(_RecordingSubscriber())
    for index in range(6):
        stream.submit(_command((4, index), size=100))
    env.run(until=0.01)
    assert cpu.busy_time("stream1/coordinator") == pytest.approx(3 * _occupancy(200, costs))


def test_stream_subscribers_receive_the_same_batches(env):
    stream = make_stream(env, batch_max_commands=3, batch_timeout=10e-6)
    first, second = _RecordingSubscriber(), _RecordingSubscriber()
    stream.subscribe(first)
    stream.subscribe(second)
    for index in range(10):
        call_after(env, index * 30e-6, lambda i=index: stream.submit(_command((5, i))))
    env.run(until=0.005)
    assert first.batches and first.skips
    assert first.batches == second.batches
    assert first.skips == second.skips


def test_stream_skips_reach_subscribers_one_hop_after_emission(env):
    costs = CostModelConfig()
    stream = make_stream(env, skip_interval=100e-6)
    arrivals = []

    class _TimedSubscriber(_RecordingSubscriber):
        def offer_skip(self, stream_id, sequence, timestamp):
            arrivals.append(env.now - timestamp)

    stream.subscribe(_TimedSubscriber())
    env.run(until=0.001)
    assert arrivals
    assert arrivals == pytest.approx([costs.net_latency] * len(arrivals))


def test_stream_sends_no_skips_while_busy(env):
    stream = make_stream(env, batch_max_commands=100, skip_interval=200e-6)
    subscriber = _RecordingSubscriber()
    stream.subscribe(subscriber)
    # One command every 100 us: the stream is never idle for a skip interval.
    for index in range(20):
        call_after(env, index * 100e-6, lambda i=index: stream.submit(_command((6, i))))
    env.run(until=0.003)
    last_proposal = max(timestamp for _sid, _seq, timestamp, _b in subscriber.batches)
    assert subscriber.skips, "the stream skips again once idle"
    assert all(timestamp > last_proposal for _sid, _seq, timestamp in subscriber.skips)


def test_stream_sequences_are_contiguous_across_batches_and_skips(env):
    stream = make_stream(env, batch_max_commands=2, skip_interval=100e-6)
    arrivals = []

    class _ArrivalLog:
        def offer(self, stream_id, sequence, timestamp, batch):
            arrivals.append(("batch", sequence))

        def offer_skip(self, stream_id, sequence, timestamp):
            arrivals.append(("skip", sequence))

    stream.subscribe(_ArrivalLog())

    def burst(base):
        for index in range(5):
            stream.submit(_command((7, base + index)))

    burst(0)
    call_after(env, 0.001, lambda: burst(5))
    env.run(until=0.002)
    # Skips and batches share one sequence space; a subscriber sees every
    # number once, in order, which is what the round-robin merge relies on.
    assert [sequence for _kind, sequence in arrivals] == list(range(len(arrivals)))
    assert {kind for kind, _seq in arrivals} == {"batch", "skip"}


@pytest.mark.parametrize("policy", ("timestamp", "round_robin"))
def test_two_streams_merge_identically_at_two_inboxes(env, policy):
    streams = [
        SimStream(
            env=env, stream_id=stream_id,
            multicast_config=MulticastConfig(batch_max_commands=2),
            costs=CostModelConfig(), rng=SeededRNG(stream_id + 10),
        )
        for stream_id in (0, 1)
    ]
    inboxes = [StreamInbox(env, [0, 1], policy=policy) for _ in range(2)]
    for stream in streams:
        for inbox in inboxes:
            stream.subscribe(inbox)
    released = [[], []]

    def consumer(env, inbox, log):
        while True:
            for batch in inbox.drain():
                log.extend(command.uid for command in batch.commands)
            yield inbox.wait()

    for inbox, log in zip(inboxes, released):
        env.process(consumer(env, inbox, log))
    submitted = []
    for index in range(30):
        stream = streams[(index * 7) % 3 % 2]
        uid = (stream.stream_id, index)
        submitted.append(uid)
        call_after(env, index * 40e-6, lambda s=stream, u=uid: s.submit(_command(u)))
    env.run(until=0.01)
    assert released[0] == released[1]
    assert sorted(released[0]) == sorted(submitted)
