"""Unit tests for the shared checkpoint policy, the delta-chain cadence
(``full_every``) and chain restore."""

import pytest

from repro.common.checkpoint import CheckpointPolicy, restore_chain
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


    def test_a_chain_driven_by_take_full_never_outgrows_full_every(self):
        """The engine's cadence: ask with ``len(chain) - 1`` deltas, then
        grow the chain or restart it at a new base."""
        for full_every in range(1, 6):
            policy = CheckpointPolicy(every_messages=10, full_every=full_every)
            chain, kinds = [], []
            for _cut in range(3 * full_every + 1):
                if not chain or policy.take_full(len(chain) - 1):
                    chain = ["full"]
                else:
                    chain.append("delta")
                kinds.append(chain[-1])
                assert len(chain) <= full_every
            cycle = ["full"] + ["delta"] * (full_every - 1)
            assert kinds == (cycle * 4)[:len(kinds)]


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


class TestReplayable:
    def test_unbounded_horizon_pins_forever(self):
        policy = CheckpointPolicy(every_messages=10)
        assert policy.replayable(10**9)

    def test_bounded_horizon(self):
        policy = CheckpointPolicy(every_messages=10, max_replay_lag=100)
        assert policy.replayable(100)
        assert not policy.replayable(101)

