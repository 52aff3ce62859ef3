"""Unit tests for the shared checkpoint policy, the delta-chain cadence
(``full_every``) and the size estimator."""

import pytest

from repro.common.checkpoint import (
    CheckpointPolicy,
    compact_chain,
    estimate_checkpoint_size,
    merge_deltas,
    restore_chain,
)
from repro.common.errors import CheckpointError, ConfigurationError


class TestValidation:
    def test_needs_the_message_trigger(self):
        with pytest.raises(TypeError):
            CheckpointPolicy()
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=None)

    def test_the_time_trigger_is_gone(self):
        """Only its own tests ever set it; nothing accepts and ignores it."""
        with pytest.raises(TypeError):
            CheckpointPolicy(every_messages=10, every_seconds=1)

    def test_rejects_non_positive_triggers(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, max_replay_lag=-1)

    def test_full_every_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, full_every=0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, full_every=-3)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, full_every=2.5)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, full_every=True)  # bools rejected
        # None is treated as 1 (deltas disabled).
        assert CheckpointPolicy(every_messages=10, full_every=None).full_every == 1

    def test_repr_names_the_knobs(self):
        policy = CheckpointPolicy(
            every_messages=5, max_replay_lag=9, full_every=4,
        )
        assert "every_messages=5" in repr(policy)
        assert "max_replay_lag=9" in repr(policy)
        assert "full_every=4" in repr(policy)


class TestDue:
    def test_message_trigger(self):
        policy = CheckpointPolicy(every_messages=10)
        assert not policy.due(9)
        assert policy.due(10)

    def test_message_trigger_boundary_is_inclusive(self):
        """Exactly ``every_messages`` ordered messages is due, one less is not."""
        policy = CheckpointPolicy(every_messages=1)
        assert not policy.due(0)
        assert policy.due(1)
        policy = CheckpointPolicy(every_messages=100)
        assert not policy.due(99)
        assert policy.due(100)
        assert policy.due(101)


class TestTakeFull:
    def test_full_every_one_means_every_checkpoint_is_full(self):
        policy = CheckpointPolicy(every_messages=10, full_every=1)
        assert policy.take_full(0)
        assert policy.take_full(5)

    def test_full_every_n_allows_n_minus_one_deltas(self):
        policy = CheckpointPolicy(every_messages=10, full_every=4)
        assert not policy.take_full(0)  # right after a full: delta
        assert not policy.take_full(1)
        assert not policy.take_full(2)
        assert policy.take_full(3)  # the 4th checkpoint of the cycle is full
        assert policy.take_full(7)  # never underestimates a long chain


class TestRestoreChain:
    class FakeService:
        def __init__(self):
            self.applied = []

        def restore(self, payload):
            self.applied = [("full", payload)]
            return self

        def apply_delta(self, payload):
            self.applied.append(("delta", payload))
            return self

    def test_applies_base_then_deltas_in_order(self):
        service = restore_chain(
            self.FakeService(),
            [
                {"kind": "full", "sequence": 1, "payload": "base"},
                {"kind": "delta", "sequence": 2, "payload": "d1"},
                {"kind": "delta", "sequence": 3, "payload": "d2"},
            ],
        )
        assert service.applied == [("full", "base"), ("delta", "d1"), ("delta", "d2")]

    def test_rejects_empty_and_malformed_chains_with_typed_error(self):
        """Malformed chains raise :class:`CheckpointError` — the typed error
        recovery negotiation catches to fall back to another path — not a
        generic configuration complaint."""
        with pytest.raises(CheckpointError):
            restore_chain(self.FakeService(), [])
        with pytest.raises(CheckpointError):
            restore_chain(
                self.FakeService(), [{"kind": "delta", "payload": "d"}]
            )
        with pytest.raises(CheckpointError):
            restore_chain(
                self.FakeService(),
                [
                    {"kind": "full", "payload": "a"},
                    {"kind": "full", "payload": "b"},
                ],
            )

    def test_malformed_chain_leaves_the_service_untouched(self):
        """Validation runs before any restore/apply call, so a failed
        negotiation attempt does not corrupt the service it probed."""
        service = self.FakeService()
        with pytest.raises(CheckpointError):
            restore_chain(service, [{"kind": "delta", "payload": "d"}])
        assert service.applied == []
        with pytest.raises(CheckpointError):
            restore_chain(
                service,
                [
                    {"kind": "full", "payload": "a"},
                    {"kind": "delta", "payload": "d"},
                    {"kind": "full", "payload": "b"},
                ],
            )
        assert service.applied == []


class TestCompaction:
    def test_compact_after_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, compact_after=1)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, compact_after=0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, compact_after=2.5)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_messages=10, compact_after=True)
        assert CheckpointPolicy(every_messages=10).compact_after is None

    def test_compact_due_boundary(self):
        policy = CheckpointPolicy(every_messages=10, compact_after=3)
        assert not policy.compact_due(2)
        assert policy.compact_due(3)
        assert policy.compact_due(4)
        disabled = CheckpointPolicy(every_messages=10)
        assert not disabled.compact_due(10**6)

    def test_compact_chain_short_chains_are_copied_not_merged(self):
        chain = [
            {"kind": "full", "sequence": 1, "payload": "base"},
            {"kind": "delta", "sequence": 2,
             "payload": {"order": 4, "changes": [(1, b"a")], "deletions": []}},
        ]
        compacted = compact_chain(chain)
        assert compacted == chain
        assert compacted is not chain  # a new list, input never mutated

    def test_compact_chain_merges_deltas_onto_the_last_cut(self):
        chain = [
            {"kind": "full", "sequence": 1, "payload": "base"},
            {"kind": "delta", "sequence": 2,
             "payload": {"order": 4, "changes": [(1, b"a"), (2, b"b")],
                         "deletions": [9]}},
            {"kind": "delta", "sequence": 3,
             "payload": {"order": 4, "changes": [(2, b"B"), (9, b"back")],
                         "deletions": [1]}},
        ]
        compacted = compact_chain(chain)
        assert [entry["kind"] for entry in compacted] == ["full", "delta"]
        assert compacted[0] is chain[0]  # base reused untouched
        assert compacted[1]["sequence"] == 3  # stamped with the tip cut
        merged = compacted[1]["payload"]
        # Last-writer-wins with deletions folded: 1 written-then-deleted,
        # 9 deleted-then-recreated, 2 overwritten.
        assert merged["changes"] == [(2, b"B"), (9, b"back")]
        assert merged["deletions"] == [1]
        # The original chain is untouched.
        assert len(chain) == 3

    def test_compact_chain_rejects_malformed_chains(self):
        with pytest.raises(CheckpointError):
            compact_chain([])
        with pytest.raises(CheckpointError):
            compact_chain([{"kind": "delta", "sequence": 1, "payload": {}}])

    def test_merge_deltas_rejects_mismatched_shapes(self):
        tree_delta = {"order": 4, "changes": [], "deletions": []}
        fs_delta = {"changed": {}, "removed": [], "fd_table": {},
                    "next_fd": 3, "next_ino": 1}
        with pytest.raises(CheckpointError):
            merge_deltas(tree_delta, fs_delta)
        with pytest.raises(CheckpointError):
            merge_deltas({"bogus": 1}, {"bogus": 2})
        with pytest.raises(CheckpointError):
            merge_deltas(None, tree_delta)


class TestReplayable:
    def test_unbounded_horizon_pins_forever(self):
        policy = CheckpointPolicy(every_messages=10)
        assert policy.replayable(10**9)

    def test_bounded_horizon(self):
        policy = CheckpointPolicy(every_messages=10, max_replay_lag=100)
        assert policy.replayable(100)
        assert not policy.replayable(101)


def test_estimate_checkpoint_size_importable_from_common():
    assert estimate_checkpoint_size(None) == 4096
    assert estimate_checkpoint_size({"a": b"xy"}) == 16 + (1 + 8) + (2 + 8)


class TestEstimateCheckpointSize:
    def test_sets_and_frozensets_are_containers_not_leaves(self):
        # 16-byte container header plus the walked contents — the same
        # charge as a list of the same elements, not a flat 8 bytes.
        assert estimate_checkpoint_size(set()) == 16
        assert estimate_checkpoint_size({7}) == 16 + 8
        assert estimate_checkpoint_size(frozenset({7, 9})) == 16 + 8 + 8
        assert estimate_checkpoint_size({"ab"}) == 16 + (2 + 8)
        assert estimate_checkpoint_size({1, 2, 3}) == estimate_checkpoint_size(
            [1, 2, 3]
        )

    def test_small_ints_and_floats_cost_eight_bytes(self):
        assert estimate_checkpoint_size(0) == 8
        assert estimate_checkpoint_size(-1) == 8
        assert estimate_checkpoint_size(2**63 - 1) == 8
        assert estimate_checkpoint_size(3.14) == 8
        assert estimate_checkpoint_size(True) == 8  # bool stays a flat leaf

    def test_large_ints_are_charged_their_byte_width(self):
        assert estimate_checkpoint_size(2**64) == 9  # 65 bits -> 9 bytes
        assert estimate_checkpoint_size(2**128) == 17
        assert estimate_checkpoint_size(10**100) == (
            (10**100).bit_length() + 7
        ) // 8
        # Width applies inside containers too.
        assert estimate_checkpoint_size([2**128]) == 16 + 17

    def test_nested_container_pin(self):
        state = {"keys": {1, 2}, "big": 2**72, "rest": [b"xy"]}
        expected = (
            16  # outer dict
            + (4 + 8) + (16 + 8 + 8)  # "keys" -> set of two small ints
            + (3 + 8) + 10            # "big" -> 73-bit int = 10 bytes
            + (4 + 8) + (16 + (2 + 8))  # "rest" -> list of b"xy"
        )
        assert estimate_checkpoint_size(state) == expected
