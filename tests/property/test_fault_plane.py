"""Property suite: the fault plane is reliable, ordered and replayable.

Three properties pin the fault model's contract (the paper's multicast is
reliable FIFO-atomic, so faults must surface as latency only):

i.   **exactly-once** — over any fault configuration, with partitions
     and heals at random times, once the plane is healed every item sent
     to a registered destination is handed to its link's ``write``
     exactly once (the plane plans one finite delay per item per link);
ii.  **in-order** — whatever delays the plane plans, the pump hands each
     link its items in posting order: a late item holds back the ones
     behind it, on the socket sink and the queue sink alike;
iii. **replayable** — the full fault schedule (every topology change and
     every random draw) is a pure function of the seed: same seed, same
     byte-for-byte ``schedule_bytes()``.

Plus the :class:`Nemesis` plan generator's safety invariants: plans are
seed-deterministic, never crash the last live replica, keep at most one
replica partitioned, respect the partition/heal gating and always end
with the network healed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.faults import FaultPlane, Nemesis, NemesisOp

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

fault_configs = st.fixed_dictionaries(
    {
        "drop": st.floats(min_value=0.0, max_value=0.9),
        "delay": st.floats(min_value=0.0, max_value=1.0),
        "delay_range": st.tuples(
            st.floats(min_value=0.0, max_value=0.01),
            st.floats(min_value=0.0, max_value=0.05),
        ).map(lambda pair: (min(pair), max(pair))),
    }
)


# ----------------------------------------------------------------------
# (i) + (ii): exactly-once, in posting order, on both sinks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sink", ["socket", "queues"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), faults=fault_configs,
       num_messages=st.integers(min_value=1, max_value=60))
def test_healed_plane_delivers_exactly_once_in_order(
    pump_script, sink, seed, faults, num_messages
):
    plane = pump_script(sink, seed, faults, num_messages)
    plans = [entry for entry in plane.schedule() if entry[0] == "plan"]
    assert len(plans) == plane.stats["messages"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), faults=fault_configs)
def test_plan_delivery_plans_one_bounded_delay(seed, faults):
    plane = FaultPlane(seed=seed)
    plane.set_link(**faults)
    for _ in range(50):
        delay = plane.plan_delivery("order", "replica1")
        assert type(delay) is float
        # Drop chains are capped: latency is bounded even at drop=0.9.
        assert 0.0 <= delay <= (
            (plane.max_retransmits - 1) * plane.retransmit_backoff
            + faults["delay_range"][1]
        )


# ----------------------------------------------------------------------
# (iii): byte-for-byte schedule replay from the seed
# ----------------------------------------------------------------------

def _drive(plane, faults):
    plane.set_link(**faults)
    plane.set_link(src="order", dst="replica1", drop=0.5)
    for message in range(40):
        plane.plan_delivery("order", f"replica{message % 3}")
        if message == 10:
            plane.isolate("replica2")
        if message == 20:
            plane.partition({"replica0"}, {"replica1", "replica2"})
        if message == 30:
            plane.heal()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), faults=fault_configs)
def test_schedule_replays_byte_for_byte_from_seed(seed, faults):
    first, second = FaultPlane(seed=seed), FaultPlane(seed=seed)
    _drive(first, faults)
    _drive(second, faults)
    assert first.schedule_bytes() == second.schedule_bytes()
    assert first.stats == second.stats
    # A different seed must change the schedule whenever randomness was
    # actually consumed (a non-zero drop or delay draws at least once).
    if any(first.stats[k] for k in ("retransmits", "delayed")):
        other = FaultPlane(seed=seed + 1)
        _drive(other, faults)
        assert first.schedule_bytes() != other.schedule_bytes()


# ----------------------------------------------------------------------
# Nemesis plan invariants
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    num_replicas=st.integers(min_value=2, max_value=5),
    steps=st.integers(min_value=1, max_value=40),
)
def test_nemesis_plan_is_safe_and_deterministic(seed, num_replicas, steps):
    nemesis = Nemesis(seed, num_replicas, steps=steps, mean_gap=0.01)
    replay = Nemesis(seed, num_replicas, steps=steps, mean_gap=0.01)
    assert nemesis.plan == replay.plan

    crashed, partitioned = set(), set()
    last_at = 0.0
    for op in nemesis.plan:
        assert isinstance(op, NemesisOp)
        assert op.at > last_at or op.at == last_at  # non-decreasing offsets
        last_at = op.at
        if op.kind == "partition":
            assert not partitioned, "only one partition at a time"
            assert op.target not in crashed
            partitioned.add(op.target)
        elif op.kind == "heal":
            partitioned.clear()
        elif op.kind == "crash":
            assert op.target not in crashed
            crashed.add(op.target)
            assert len(crashed) <= num_replicas - 1, "last live replica crashed"
        elif op.kind in ("recover", "restart_disk"):
            assert not partitioned, "recovery requires a healed network"
            assert op.target in crashed
            crashed.discard(op.target)
        elif op.kind == "checkpoint":
            assert not partitioned, "markers require every live replica reachable"
    assert not partitioned, "plan must end healed"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_nemesis_restricted_kinds_are_honoured(seed):
    kinds = ("partition", "heal", "crash", "recover")
    nemesis = Nemesis(seed, 3, steps=20, mean_gap=0.01, kinds=kinds)
    assert set(op.kind for op in nemesis.plan) <= set(kinds)
