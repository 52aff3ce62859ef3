"""Property suite: the ``d`` burst layout, end to end on the replica side.

A run of ordered messages leaves the coordinator as ``d`` frames
(:func:`wire.deliver_frames`); a replica process reads them back through
:class:`wire.FrameReader`, however the kernel split the stream, and files
each message through its inbox's :class:`ReliableLink`.  These properties hold
that path for any run: every message comes back as it was sent, and
under a fault plane each is released exactly once, in order.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.common import framing
from repro.common.faults import FaultPlane
from repro.multicast.group import ALL_GROUPS
from repro.runtime.replica_proc import ReplicaProcess
from repro.runtime.transport import wire

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
group_ids = st.integers(min_value=0, max_value=2**32 - 1)

bodies = (
    st.binary(max_size=48)  # kind 0, and kind 1: a marker or a shard update
    | st.builds(
        wire.make_cut, st.integers(min_value=0), st.none() | int64,
        st.booleans(),
    )
)
destinations = (
    st.just(ALL_GROUPS)
    | st.none()
    | st.frozensets(group_ids, max_size=6).map(wire.encode_destinations)
)


class _Chunks:
    """A socket stand-in whose ``recv_into`` hands out ``chunks`` in turn,
    then EOF."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv_into(self, view):
        if not self._chunks:
            return 0
        chunk = self._chunks.pop(0)
        view[: len(chunk)] = chunk
        return len(chunk)


@st.composite
def runs(draw):
    """1-64 ``(ls, s, dst, body)`` messages, link sequences ascending but
    not contiguous."""
    count = draw(st.integers(min_value=1, max_value=64))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=2**40),
                         min_size=count, max_size=count))
    start = draw(st.integers(min_value=0, max_value=2**20))
    link_sequences = [start + sum(gaps[:i]) for i in range(count)]
    return [
        (link_sequence, draw(int64), draw(destinations), draw(bodies))
        for link_sequence in link_sequences
    ]


def _frames(messages):
    chunks = wire.deliver_frames(
        [
            (link_sequence, wire.ordered_part(sequence, dst, body))
            for link_sequence, sequence, dst, body in messages
        ]
    )
    return [header + payload for header, payload in zip(chunks[::2], chunks[1::2])]


class TestBurstPathProperties:
    @settings(max_examples=60, deadline=None)
    @given(messages=runs(), size=st.sampled_from([wire.FrameReader.SIZE, 64]))
    def test_a_run_round_trips_through_the_reader_cut_at_every_byte(
        self, messages, size
    ):
        frames = _frames(messages)
        stream = b"".join(frames)
        ends = [sum(map(len, frames[: i + 1])) for i in range(len(frames))]
        # One byte per ``recv_into``: the stream is cut at every byte, and
        # a buffer smaller than a frame takes the grow / compact / shrink
        # paths as well (the frames were cut to the default size).
        reader_class = type("Reader", (wire.FrameReader,), {"SIZE": size})
        reader = reader_class(_Chunks(stream[i:i + 1] for i in range(len(stream))))
        decoded, fed = [], 0
        while (read := reader.take()) is not None:
            fed += 1
            decoded.extend(read)
            # Exactly the frames complete at this cut are out.
            assert len(decoded) == sum(1 for end in ends if end <= fed)
        assert reader.error is None
        assert [message for frame in decoded for message in frame["msgs"]] == messages
        assert {frame["t"] for frame in decoded} == {"d"}
        for (_ls, _s, dst, body), (_, _, got_dst, got_body) in zip(
            messages, (m for frame in decoded for m in frame["msgs"])
        ):
            assert type(got_dst) is type(dst) and type(got_body) is type(body)

    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_under_faults_each_message_is_released_once_in_order(
        self, count, seed
    ):
        plane = FaultPlane(seed=seed, retransmit_backoff=0.002)
        plane.set_link(
            duplicate=0.4, delay=0.5, delay_range=(0.0, 0.01),
            reorder=0.3, reorder_window=0.005,
        )
        rng = random.Random(seed)
        sent = [
            (sequence, rng.choice([(1,), (2,), ALL_GROUPS]), b"c%d" % sequence)
            for sequence in range(count)
        ]
        # Every copy the plane plans, in the order the pump would write
        # them (by arrival time, ties in posting order), cut into bursts
        # at random points — as the pump's passes would.
        copies = sorted(
            (delay, link_sequence, message)
            for link_sequence, message in enumerate(sent)
            for delay in plane.plan_delivery("order", "replica0")
        )
        replica = ReplicaProcess(None, 0, 2, None, None)
        stream = []
        while copies:
            cut = rng.randint(1, len(copies))
            run, copies = copies[:cut], copies[cut:]
            stream += _frames(
                [(link_sequence, *message) for _delay, link_sequence, message in run]
            )
        for frame in stream:
            payload = frame[framing.HEADER_SIZE:]
            replica.accept_deliver(wire.decode_payload(payload)["msgs"])
            replica.inbox.flush()
        assert replica.inbox.link.next_expected() == count
        assert replica.inbox.link.pending() == 0
        for index, queue in replica.inbox.queues.items():
            expected = [item for item in sent if item[1] in ((index,), ALL_GROUPS)]
            assert (queue.get_batch(count) if expected else []) == expected
            assert queue.empty()
