"""Unit tests for command batching at group coordinators."""

import pytest

from repro.common.errors import ConfigurationError
from repro.multicast.batcher import Batcher


def test_batcher_rejects_nonpositive_limits():
    with pytest.raises(ConfigurationError):
        Batcher(group_id=0, max_bytes=0)


def test_add_below_limits_returns_none():
    batcher = Batcher(group_id=1, max_bytes=1000, max_commands=10)
    assert batcher.add("cmd", 10, now=0.0) is None
    assert len(batcher) == 1
    assert batcher.pending_bytes == 10


def test_add_emits_batch_at_command_limit():
    batcher = Batcher(group_id=1, max_bytes=10_000, max_commands=3)
    batcher.add("a", 1, 0.0)
    batcher.add("b", 1, 0.0)
    batch = batcher.add("c", 1, 0.0)
    assert batch is not None
    assert batch.commands == ["a", "b", "c"]
    assert len(batcher) == 0


def test_add_emits_batch_at_byte_limit():
    """The paper batches up to 8 Kbytes of commands per group."""
    batcher = Batcher(group_id=1, max_bytes=8 * 1024, max_commands=10_000)
    batch = None
    count = 0
    while batch is None:
        batch = batcher.add(f"cmd{count}", 128, now=0.0)
        count += 1
    assert batch.size_bytes >= 8 * 1024
    assert count == 64


def test_batch_sequence_numbers_increase():
    batcher = Batcher(group_id=1, max_bytes=100, max_commands=1)
    first = batcher.add("a", 1, 0.0)
    second = batcher.add("b", 1, 0.0)
    assert (first.sequence, second.sequence) == (0, 1)


def test_flush_empty_returns_none():
    batcher = Batcher(group_id=1)
    assert batcher.flush() is None


def test_should_flush_after_timeout():
    batcher = Batcher(group_id=1, timeout=0.001)
    batcher.add("a", 1, now=1.0)
    assert not batcher.should_flush(now=1.0005)
    assert batcher.should_flush(now=1.002)


def test_flush_resets_state():
    batcher = Batcher(group_id=1)
    batcher.add("a", 5, now=0.0)
    batch = batcher.flush()
    assert batch.commands == ["a"]
    assert len(batcher) == 0
    assert batcher.pending_bytes == 0
    assert batcher.oldest_enqueue_time is None


def test_allocate_skip_sequence_shares_numbering():
    batcher = Batcher(group_id=1, max_commands=1)
    first = batcher.add("a", 1, 0.0)
    skip = batcher.allocate_skip_sequence()
    second = batcher.add("b", 1, 0.0)
    assert (first.sequence, skip, second.sequence) == (0, 1, 2)


def test_counters_track_batches_and_commands():
    batcher = Batcher(group_id=1, max_commands=2)
    batcher.add("a", 1, 0.0)
    batcher.add("b", 1, 0.0)
    batcher.add("c", 1, 0.0)
    batcher.flush()
    assert batcher.batches_emitted == 2
    assert batcher.commands_batched == 3


def test_batch_len_counts_commands():
    batcher = Batcher(group_id=2, max_commands=10)
    for name in ("a", "b", "c"):
        batcher.add(name, 1, 0.0)
    batch = batcher.flush()
    assert len(batch) == 3
    assert batch.group_id == 2


def test_should_flush_is_false_when_empty():
    batcher = Batcher(group_id=1, timeout=0.001)
    assert not batcher.should_flush(now=10.0)


def test_timeout_clock_restarts_after_flush():
    batcher = Batcher(group_id=1, timeout=0.001)
    batcher.add("a", 1, now=0.0)
    batcher.flush()
    batcher.add("b", 1, now=5.0)
    assert batcher.oldest_enqueue_time == 5.0
    assert not batcher.should_flush(now=5.0005)
    assert batcher.should_flush(now=5.001)
