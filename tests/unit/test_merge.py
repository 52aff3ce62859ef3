"""Unit tests for the deterministic merge buffer."""

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.multicast import MergeBuffer, SkipToken


def test_merge_requires_streams():
    with pytest.raises(ConfigurationError):
        MergeBuffer([])


def test_merge_rejects_unknown_policy():
    with pytest.raises(ConfigurationError):
        MergeBuffer([1], policy="best-effort")


def test_offer_to_unknown_stream_raises():
    buffer = MergeBuffer([1, 2])
    with pytest.raises(ProtocolError):
        buffer.offer(3, 0, 0.0, "x")


def test_sequence_must_not_go_backwards():
    buffer = MergeBuffer([1])
    buffer.offer(1, 5, 1.0, "a")
    with pytest.raises(ProtocolError):
        buffer.offer(1, 4, 2.0, "b")


def test_single_stream_delivers_immediately():
    buffer = MergeBuffer([1], policy="timestamp")
    buffer.offer(1, 0, 1.0, "a")
    buffer.offer(1, 1, 2.0, "b")
    assert buffer.pop_deliverable() == ["a", "b"]
    assert buffer.delivered == 2


def test_timestamp_merge_waits_for_other_stream_information():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer(1, 0, 5.0, "late-stream-item")
    # Nothing can be delivered: stream 0 might still produce an earlier item.
    assert buffer.pop_deliverable() == []
    buffer.offer_skip(0, 0, 6.0)
    assert buffer.pop_deliverable() == ["late-stream-item"]


def test_timestamp_merge_orders_across_streams_by_timestamp():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer(0, 0, 2.0, "b")
    buffer.offer(1, 0, 1.0, "a")
    buffer.offer_skip(0, 1, 10.0)
    buffer.offer_skip(1, 1, 10.0)
    assert buffer.pop_deliverable() == ["a", "b"]


def test_timestamp_merge_breaks_ties_by_stream_id():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer(1, 0, 3.0, "from-1")
    buffer.offer(0, 0, 3.0, "from-0")
    buffer.offer_skip(0, 1, 9.0)
    buffer.offer_skip(1, 1, 9.0)
    assert buffer.pop_deliverable() == ["from-0", "from-1"]


def test_timestamp_merge_equal_horizon_blocks_lower_priority_stream():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer(1, 0, 3.0, "item")
    # Stream 0's horizon equals the item's timestamp: a batch at 3.0 from
    # stream 0 would sort first (lower stream id), so the item must wait.
    buffer.offer_skip(0, 0, 3.0)
    assert buffer.pop_deliverable() == []
    buffer.offer_skip(0, 1, 3.1)
    assert buffer.pop_deliverable() == ["item"]


def test_skip_tokens_are_not_delivered():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer_skip(0, 0, 4.0)
    buffer.offer(1, 0, 1.0, "x")
    assert buffer.pop_deliverable() == ["x"]


def test_round_robin_requires_entry_from_every_stream():
    buffer = MergeBuffer([0, 1], policy="round_robin")
    buffer.offer(1, 0, 1.0, "a")
    assert buffer.pop_deliverable() == []
    buffer.offer_skip(0, 0, 1.0)
    assert buffer.pop_deliverable() == ["a"]


def test_round_robin_delivers_in_stream_id_order_per_round():
    buffer = MergeBuffer([0, 1], policy="round_robin")
    buffer.offer(1, 0, 1.0, "b")
    buffer.offer(0, 0, 2.0, "a")
    assert buffer.pop_deliverable() == ["a", "b"]


def test_round_robin_advances_rounds():
    buffer = MergeBuffer([0, 1], policy="round_robin")
    for round_number in range(3):
        buffer.offer(0, round_number, float(round_number), f"a{round_number}")
        buffer.offer(1, round_number, float(round_number), f"b{round_number}")
    assert buffer.pop_deliverable() == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_pending_counts_buffered_items():
    buffer = MergeBuffer([0, 1], policy="timestamp")
    buffer.offer(1, 0, 5.0, "x")
    assert buffer.pending() == 1


def test_two_subscribers_deliver_identical_order():
    """The determinism property the replicas rely on."""
    events = [
        ("offer", 0, 0, 1.0, "a"),
        ("offer", 1, 0, 1.5, "b"),
        ("offer", 0, 1, 2.0, "c"),
        ("skip", 1, 1, 2.5, None),
        ("offer", 1, 2, 3.0, "d"),
        ("offer", 0, 2, 3.5, "e"),
        ("skip", 0, 3, 9.0, None),
        ("skip", 1, 3, 9.0, None),
    ]

    def replay(order):
        buffer = MergeBuffer([0, 1], policy="timestamp")
        delivered = []
        for kind, stream, seq, ts, item in order:
            if kind == "offer":
                buffer.offer(stream, seq, ts, item)
            else:
                buffer.offer_skip(stream, seq, ts)
            delivered.extend(buffer.pop_deliverable())
        return delivered

    # Subscriber B receives stream 1's messages earlier than subscriber A
    # (different network interleaving), but per-stream FIFO is preserved.
    reordered = [events[1], events[0], events[3], events[2]] + events[4:]
    assert replay(events) == replay(reordered)


def test_skip_token_dataclass_fields():
    token = SkipToken(stream_id=2, sequence=7)
    assert token.stream_id == 2
    assert token.sequence == 7


def test_skip_to_unknown_stream_raises():
    buffer = MergeBuffer([0, 1])
    with pytest.raises(ProtocolError):
        buffer.offer_skip(2, 0, 1.0)


def test_round_robin_skip_only_round_advances_to_next_round():
    buffer = MergeBuffer([0, 1], policy="round_robin")
    buffer.offer_skip(0, 0, 1.0)
    buffer.offer_skip(1, 0, 1.0)
    assert buffer.pop_deliverable() == []
    assert buffer.pending() == 0
    buffer.offer(1, 1, 2.0, "b")
    buffer.offer(0, 1, 2.0, "a")
    assert buffer.pop_deliverable() == ["a", "b"]
    assert buffer.delivered == 2
