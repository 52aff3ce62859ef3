"""Property suite: the ``d`` burst layout, end to end on the replica side.

A run of ordered messages leaves the coordinator as ``d`` frames
(:func:`wire.deliver_frames`); a replica process reads them back through
:class:`wire.FrameReader`, however the kernel split the stream.  These
properties hold that path for any run: every message comes back as it
was sent, and under a fault plane the pump hands each link every message
exactly once, in order — what it writes to a socket is what the replica
reads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.multicast.group import ALL_GROUPS
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


runs = st.lists(
    st.tuples(int64, destinations, bodies), min_size=1, max_size=64
)  # ``(s, dst, body)`` messages


def _frames(messages):
    chunks = wire.deliver_frames(
        [wire.ordered_part(sequence, dst, body) for sequence, dst, body in messages]
    )
    return [header + payload for header, payload in zip(chunks[::2], chunks[1::2])]


class TestBurstPathProperties:
    @settings(max_examples=60, deadline=None)
    @given(messages=runs, size=st.sampled_from([wire.FrameReader.SIZE, 64]))
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
        for (_s, dst, body), (_, got_dst, got_body) in zip(
            messages, (m for frame in decoded for m in frame["msgs"])
        ):
            assert type(got_dst) is type(dst) and type(got_body) is type(body)

    @pytest.mark.parametrize("sink", ["socket", "queues"])
    @settings(max_examples=40, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_under_faults_each_message_is_released_once_in_order(
        self, pump_script, sink, count, seed
    ):
        pump_script(
            sink, seed, {"drop": 0.3, "delay": 0.5, "delay_range": (0.0, 0.01)},
            count,
        )
