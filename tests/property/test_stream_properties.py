"""Property-based tests of the simulator's per-group ordering model.

A :class:`SimStream` stands for one multicast group's Paxos instance with a
stable leader: every command submitted is decided exactly once, batches
reach each subscriber in sequence order over a FIFO link, one Paxos round
(3 one-way latencies plus jitter) after they are proposed, and batches and
idle skips share one gap-free sequence space.
"""

from hypothesis import example, given, settings, strategies as st

from repro.common.config import CostModelConfig, MulticastConfig
from repro.common.rng import SeededRNG
from repro.core.command import Command
from repro.multicast.batcher import Batcher
from repro.replication.base import SimStream, call_after
from repro.sim import Environment

COSTS = CostModelConfig()

#: Submissions as (gap before it in microseconds, size in bytes).
submissions = st.lists(
    st.tuples(st.integers(0, 400), st.integers(16, 2048)), min_size=1, max_size=40
)
stream_configs = st.builds(
    MulticastConfig,
    batch_max_bytes=st.integers(512, 8192),
    batch_max_commands=st.integers(1, 8),
    batch_timeout=st.sampled_from([10e-6, 50e-6, 120e-6]),
    skip_interval=st.sampled_from([100e-6, 200e-6]),
)


class _Log:
    """A subscriber that records everything it is sent, in arrival order."""

    def __init__(self, env):
        self.env = env
        self.arrivals = []

    def offer(self, stream_id, sequence, timestamp, batch):
        self.arrivals.append((sequence, self.env.now, timestamp, batch))

    def offer_skip(self, stream_id, sequence, timestamp):
        self.arrivals.append((sequence, self.env.now, timestamp, None))

    def batches(self):
        return [entry for entry in self.arrivals if entry[3] is not None]


def _run(config, plan, seed):
    env = Environment()
    stream = SimStream(env, 4, config, COSTS, SeededRNG(seed))
    logs = [_Log(env), _Log(env)]
    for log in logs:
        stream.subscribe(log)
    at = 0.0
    uids = []
    for index, (gap_us, size) in enumerate(plan):
        at += gap_us * 1e-6
        command = Command(uid=(4, index), name="write", size_bytes=size)
        uids.append(command.uid)
        call_after(env, at, lambda c=command: stream.submit(c))
    env.run(until=at + 0.003)
    return uids, logs


@settings(max_examples=40, deadline=None)
@given(config=stream_configs, plan=submissions, seed=st.integers(0, 2**16))
def test_stream_delivers_every_command_once_in_submission_order(config, plan, seed):
    uids, logs = _run(config, plan, seed)
    for log in logs:
        delivered = [c.uid for _seq, _at, _ts, batch in log.batches() for c in batch.commands]
        assert delivered == uids


@settings(max_examples=40, deadline=None)
@given(config=stream_configs, plan=submissions, seed=st.integers(0, 2**16))
def test_stream_batches_arrive_one_round_after_proposal(config, plan, seed):
    _uids, logs = _run(config, plan, seed)
    for log in logs:
        proposals = [timestamp for _seq, _at, timestamp, _b in log.batches()]
        assert proposals == sorted(proposals)
        for _seq, arrived, proposed, _batch in log.batches():
            assert 3 * COSTS.net_latency - 1e-12 <= arrived - proposed
            assert arrived - proposed <= 3 * COSTS.net_latency + COSTS.net_jitter + 1e-12


@settings(max_examples=40, deadline=None)
@given(config=stream_configs, plan=submissions, seed=st.integers(0, 2**16))
@example(  # a batch sealed on a skip tick, before the coordinator takes it
    config=MulticastConfig(
        batch_max_bytes=512, batch_max_commands=1, batch_timeout=10e-6,
        skip_interval=100e-6,
    ),
    plan=[(100, 16), (400, 16)],
    seed=0,
)
def test_stream_sequence_space_is_gap_free_and_shared(config, plan, seed):
    _uids, logs = _run(config, plan, seed)
    first, second = logs
    assert [seq for seq, *_ in first.arrivals] == list(range(len(first.arrivals)))
    # Agreement: both subscribers see the same sequence of batches and skips.
    assert [(seq, ts, batch) for seq, _at, ts, batch in first.arrivals] == [
        (seq, ts, batch) for seq, _at, ts, batch in second.arrivals
    ]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3000), max_size=60),
    max_bytes=st.integers(1, 8192),
    max_commands=st.integers(1, 10),
)
def test_batcher_partitions_input_within_limits(sizes, max_bytes, max_commands):
    batcher = Batcher(group_id=0, max_bytes=max_bytes, max_commands=max_commands)
    batches = [batcher.add(index, size, now=0.0) for index, size in enumerate(sizes)]
    sealed = [batch for batch in batches if batch is not None]
    final = batcher.flush()
    emitted = sealed + ([final] if final is not None else [])
    assert [c for batch in emitted for c in batch.commands] == list(range(len(sizes)))
    assert [batch.sequence for batch in emitted] == list(range(len(emitted)))
    for batch in emitted:
        assert 1 <= len(batch) <= max_commands
        assert batch.size_bytes == sum(sizes[c] for c in batch.commands)
        # A limit seals the batch with the command that reaches it.
        assert batch.size_bytes - sizes[batch.commands[-1]] < max_bytes
    for batch in sealed:
        assert len(batch) == max_commands or batch.size_bytes >= max_bytes
