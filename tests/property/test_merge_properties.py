"""Property-based tests: the deterministic merge is actually deterministic.

Two subscribers of the same streams may receive the streams' events in
different relative interleavings (per-stream FIFO is preserved, which is
what the network guarantees); they must still deliver the same sequence.
"""

from hypothesis import given, settings, strategies as st

from repro.multicast import MergeBuffer


@st.composite
def stream_events(draw):
    """Generate per-stream FIFO event lists plus one arbitrary interleaving."""
    num_streams = draw(st.integers(min_value=2, max_value=3))
    streams = list(range(num_streams))
    per_stream = {}
    clock = 0.0
    for stream in streams:
        events = []
        count = draw(st.integers(min_value=0, max_value=8))
        timestamp = draw(st.floats(min_value=0, max_value=2))
        for seq in range(count):
            timestamp += draw(st.floats(min_value=0.01, max_value=1.0))
            is_skip = draw(st.booleans())
            events.append((stream, seq, round(timestamp, 4), is_skip))
        # Final skip so every stream's horizon eventually passes every batch.
        events.append((stream, count, 1000.0, True))
        per_stream[stream] = events
        clock = max(clock, timestamp)
    return streams, per_stream


def interleave(per_stream, order_seed):
    """Deterministically interleave streams preserving per-stream order."""
    cursors = {stream: 0 for stream in per_stream}
    merged = []
    state = order_seed
    pending = {s: list(events) for s, events in per_stream.items()}
    while any(pending.values()):
        candidates = [s for s, events in pending.items() if events]
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        stream = candidates[state % len(candidates)]
        merged.append(pending[stream].pop(0))
        cursors[stream] += 1
    return merged


def replay(streams, arrival_order):
    buffer = MergeBuffer(streams, policy="timestamp")
    delivered = []
    for stream, seq, timestamp, is_skip in arrival_order:
        if is_skip:
            buffer.offer_skip(stream, seq, timestamp)
        else:
            buffer.offer(stream, seq, timestamp, (stream, seq))
        delivered.extend(buffer.pop_deliverable())
    return delivered


@settings(max_examples=80, deadline=None)
@given(data=stream_events(), seed_a=st.integers(0, 2**16), seed_b=st.integers(0, 2**16))
def test_delivery_order_independent_of_arrival_interleaving(data, seed_a, seed_b):
    streams, per_stream = data
    first = replay(streams, interleave(per_stream, seed_a))
    second = replay(streams, interleave(per_stream, seed_b))
    assert first == second


@settings(max_examples=80, deadline=None)
@given(data=stream_events(), seed=st.integers(0, 2**16))
def test_delivery_respects_per_stream_fifo(data, seed):
    streams, per_stream = data
    delivered = replay(streams, interleave(per_stream, seed))
    for stream in streams:
        sequence = [seq for s, seq in delivered if s == stream]
        assert sequence == sorted(sequence)


@settings(max_examples=80, deadline=None)
@given(data=stream_events(), seed=st.integers(0, 2**16))
def test_everything_is_eventually_delivered(data, seed):
    streams, per_stream = data
    delivered = replay(streams, interleave(per_stream, seed))
    expected = {
        (stream, seq)
        for stream, events in per_stream.items()
        for (s, seq, _ts, is_skip) in events
        if not is_skip
    }
    assert set(delivered) == expected


def replay_round_robin(streams, arrival_order):
    buffer = MergeBuffer(streams, policy="round_robin")
    delivered = []
    for stream, seq, timestamp, is_skip in arrival_order:
        if is_skip:
            buffer.offer_skip(stream, seq, timestamp)
        else:
            buffer.offer(stream, seq, timestamp, (stream, seq))
        delivered.extend(buffer.pop_deliverable())
    return buffer, delivered


def complete_rounds(per_stream):
    return min(len(events) for events in per_stream.values())


@settings(max_examples=80, deadline=None)
@given(data=stream_events(), seed=st.integers(0, 2**16))
def test_round_robin_delivers_complete_rounds_in_stream_order(data, seed):
    streams, per_stream = data
    _buffer, delivered = replay_round_robin(streams, interleave(per_stream, seed))
    expected = [
        (stream, seq)
        for seq in range(complete_rounds(per_stream))
        for stream in sorted(streams)
        if not per_stream[stream][seq][3]
    ]
    assert delivered == expected


@settings(max_examples=80, deadline=None)
@given(data=stream_events(), seed=st.integers(0, 2**16))
def test_round_robin_holds_back_only_incomplete_rounds(data, seed):
    streams, per_stream = data
    buffer, _delivered = replay_round_robin(streams, interleave(per_stream, seed))
    rounds = complete_rounds(per_stream)
    assert buffer.pending() == sum(len(events) - rounds for events in per_stream.values())
