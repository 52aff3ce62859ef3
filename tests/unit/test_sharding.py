"""Unit tests for dynamic key-range sharding (ISSUE 10).

Covers the shard map's validation and lookup, the load tracker and
rebalance proposals, the router's atomic installs, the sequencer-side
staleness check and the C-G integration.
"""

import pytest

from repro.common.errors import ConfigurationError, StaleShardRouteError
from repro.core.cg import CGFunction
from repro.multicast.group import ALL_GROUPS
from repro.multicast.sharding import (
    HASH_SPACE,
    ShardLoadTracker,
    ShardMap,
    ShardRouter,
    group_loads,
    propose_rebalance,
    stable_key_hash,
)
from repro.runtime.multicast import LocalAtomicMulticast
from repro.runtime.transport.inproc import InprocTransport
from repro.services.kvstore import KVSTORE_SPEC


# ----------------------------------------------------------------------
# stable_key_hash
# ----------------------------------------------------------------------
def test_stable_hash_int_identity():
    # Small non-negative ints map to themselves so an integer keyspace is
    # contiguous in hash space — the key-range partition depends on it.
    for key in (0, 1, 7, 4095, HASH_SPACE - 1):
        assert stable_key_hash(key) == key


def test_stable_hash_is_deterministic_across_types():
    assert stable_key_hash("alpha") == stable_key_hash("alpha")
    assert stable_key_hash(("a", 3)) == stable_key_hash(("a", 3))
    assert stable_key_hash("alpha") != stable_key_hash("beta")
    assert 0 <= stable_key_hash("anything") < HASH_SPACE


def test_cg_shares_the_hash_implementation():
    # Static and dynamic routing must agree on where a key lives.
    assert CGFunction._stable_hash is stable_key_hash


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
def test_shard_map_validation():
    with pytest.raises(ConfigurationError):
        ShardMap(0, [], [])  # no ranges
    with pytest.raises(ConfigurationError):
        ShardMap(0, [5], [1])  # must start at 0
    with pytest.raises(ConfigurationError):
        ShardMap(0, [0, 10, 10], [1, 2, 3])  # not strictly increasing
    with pytest.raises(ConfigurationError):
        ShardMap(0, [0, HASH_SPACE], [1, 2])  # bound out of hash space
    with pytest.raises(ConfigurationError):
        ShardMap(0, [0, 10], [1])  # bounds/groups length mismatch
    with pytest.raises(ConfigurationError):
        ShardMap(0, [0], [0])  # group ids start at 1
    with pytest.raises(ConfigurationError):
        ShardMap(0, [0, 10], [1, 5], mpl=4)  # group exceeds mpl
    with pytest.raises(ConfigurationError):
        ShardMap(-1, [0], [1])  # negative version


def test_initial_splits_the_key_space_evenly():
    shard_map = ShardMap.initial(4, key_space=256)
    assert shard_map.version == 0
    assert shard_map.bounds == (0, 64, 128, 192)
    assert shard_map.group_for_key(0) == 1
    assert shard_map.group_for_key(63) == 1
    assert shard_map.group_for_key(64) == 2
    assert shard_map.group_for_key(255) == 4
    # The last range extends to the end of hash space.
    assert shard_map.group_for_hash(HASH_SPACE - 1) == 4


def test_initial_without_key_space_splits_hash_space():
    shard_map = ShardMap.initial(2)
    assert shard_map.bounds == (0, HASH_SPACE // 2)
    assert shard_map.ranges() == [
        (0, HASH_SPACE // 2, 1),
        (HASH_SPACE // 2, HASH_SPACE, 2),
    ]


def test_split_and_move_bump_versions():
    shard_map = ShardMap.initial(2, key_space=100)
    split = shard_map.split(25)
    assert split.version == 1
    assert split.bounds == (0, 25, 50)
    assert split.groups == (1, 1, 2)
    moved = split.move(25, 2)
    assert moved.version == 2
    assert moved.group_for_key(30) == 2
    with pytest.raises(ConfigurationError):
        split.split(25)  # already a boundary
    with pytest.raises(ConfigurationError):
        split.move(26, 2)  # not a range start


def test_moved_ranges_are_coalesced():
    old = ShardMap.initial(4, key_space=400)
    new = old.split(50).move(50, 3)
    assert new.moved_ranges(old) == [(50, 100, 1, 3)]
    # Adjacent intervals moving between the same pair coalesce even when
    # a boundary from the other map cuts through them.
    merged = ShardMap(1, [0], [1])
    moves = merged.moved_ranges(old)
    assert moves == [(100, HASH_SPACE, 2, 1)] or all(
        entry[3] == 1 for entry in moves
    )


def test_group_for_hash_masks_to_the_hash_space():
    shard_map = ShardMap.initial(4, key_space=256)
    for key_hash in (0, 70, 200):
        assert shard_map.group_for_hash(HASH_SPACE + key_hash) == (
            shard_map.group_for_hash(key_hash)
        )


def test_ranges_tile_hash_space_after_split_and_move():
    shard_map = ShardMap.initial(4, key_space=256).split(10).move(10, 3).split(200)
    ranges = shard_map.ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == HASH_SPACE
    for (_, hi, _), (lo, _, _) in zip(ranges, ranges[1:]):
        assert hi == lo
    assert [group for _, _, group in ranges] == list(shard_map.groups)
    assert shard_map.group_for_key(10) == 3 and shard_map.group_for_key(9) == 1


def test_a_split_moves_nothing():
    old = ShardMap.initial(4, key_space=256)
    assert old.moved_ranges(old) == []
    assert old.split(100).moved_ranges(old) == []
    # Moving a range back to its owner is a new version that moves nothing.
    assert old.move(64, 2).moved_ranges(old) == []


def test_shard_maps_compare_by_version_and_partition():
    shard_map = ShardMap.initial(2, key_space=100)
    assert shard_map == ShardMap(0, (0, 50), (1, 2))
    assert shard_map != ShardMap(1, (0, 50), (1, 2))
    assert shard_map != ShardMap(0, (0, 50), (2, 1))
    assert shard_map != (0, (0, 50), (1, 2))
    assert repr(shard_map) == "ShardMap(version=0, ranges=2, groups=[1, 2])"


# ----------------------------------------------------------------------
# Load tracking and rebalance proposals
# ----------------------------------------------------------------------
def test_tracker_counts_and_overflow():
    tracker = ShardLoadTracker(max_tracked=2)
    for _ in range(3):
        tracker.record(1)
    tracker.record(2)
    tracker.record(3)  # over the limit: counted as untracked
    assert tracker.snapshot() == {1: 3, 2: 1}
    assert tracker.untracked == 1
    tracker.reset()
    assert tracker.snapshot() == {}
    assert tracker.untracked == 0


def test_group_loads_sums_counts_per_owning_group():
    shard_map = ShardMap.initial(2, key_space=100)
    assert group_loads(shard_map, {}) == {}
    assert group_loads(shard_map, {1: 3, 49: 2, 50: 7, HASH_SPACE - 1: 1}) == {
        1: 5,
        2: 8,
    }


def test_tracker_and_router_reject_bad_configuration():
    with pytest.raises(ConfigurationError):
        ShardLoadTracker(max_tracked=0)
    with pytest.raises(ConfigurationError):
        ShardRouter((0, (0,), (1,)), 2)  # not a ShardMap


def test_propose_rebalance_flattens_skew():
    shard_map = ShardMap.initial(4, key_space=400)
    # All load on group 1's range.
    counts = {h: 100 for h in range(0, 100, 5)}
    proposal = propose_rebalance(shard_map, counts, 4, min_imbalance=1.25)
    assert proposal is not None
    assert proposal.version == shard_map.version + 1
    before = group_loads(shard_map, counts)
    after = group_loads(proposal, counts)
    assert max(before.values()) == sum(counts.values())  # fully skewed
    assert max(after.values()) < max(before.values()) / 2
    assert len(after) == 4


def test_propose_rebalance_none_cases():
    shard_map = ShardMap.initial(4, key_space=400)
    assert propose_rebalance(shard_map, {}, 4) is None  # no load
    assert propose_rebalance(shard_map, {1: 5}, 1) is None  # mpl 1
    balanced = {h: 1 for h in range(0, 400, 7)}  # even spread
    assert propose_rebalance(shard_map, balanced, 4) is None


def test_router_routes_records_and_installs():
    router = ShardRouter(ShardMap.initial(2, key_space=100), 2)
    group, version = router.route_hash(10)
    assert (group, version) == (1, 0)
    assert router.tracker.snapshot() == {10: 1}
    successor = router.shard_map.split(25).move(25, 2)
    router.install(successor)
    assert router.route_hash(30)[0] == 2
    with pytest.raises(ConfigurationError):
        router.install(successor)  # version must advance
    with pytest.raises(ConfigurationError):
        ShardRouter(ShardMap(0, [0], [5]), 2)  # group exceeds mpl


# ----------------------------------------------------------------------
# C-G integration
# ----------------------------------------------------------------------
def test_cg_route_reports_shard_version():
    router = ShardRouter(ShardMap.initial(4, key_space=256), 4)
    cg = CGFunction(KVSTORE_SPEC, 4, router=router)
    groups, version = cg.route("update", {"key": 5, "value": b"x"})
    assert groups == frozenset({1}) and version == 0
    assert cg.group_of_key(200) == 4
    # Serial commands bypass the shard map entirely.
    groups, version = cg.route("insert", {"key": 5, "value": b"x"})
    assert groups is ALL_GROUPS and version is None
    router.install(router.shard_map.move(128, 1))
    groups, version = cg.route("update", {"key": 130, "value": b"x"})
    assert groups == frozenset({1}) and version == 1


def test_cg_without_router_keeps_modulo_rule():
    cg = CGFunction(KVSTORE_SPEC, 4)
    assert cg.group_of_key(6) == (6 % 4) + 1
    groups, version = cg.route("update", {"key": 6, "value": b"x"})
    assert groups == frozenset({3}) and version is None


# ----------------------------------------------------------------------
# Sequencer-side staleness check
# ----------------------------------------------------------------------
def test_multicast_rejects_stale_routings_before_sequencing():
    multicast = LocalAtomicMulticast(InprocTransport(2))
    multicast.register_replica(0)
    before = multicast.latest_sequence()
    with pytest.raises(StaleShardRouteError):
        multicast.multicast(frozenset({1}), {"cmd": 1}, shard_version=7)
    # The rejection happened before a sequence number was consumed.
    assert multicast.latest_sequence() == before
    assert multicast.stale_routings_rejected == 1
    # Matching versions pass.
    multicast.multicast(frozenset({1}), {"cmd": 1}, shard_version=0)
    assert multicast.latest_sequence() == before + 1


def test_shard_update_advances_version_atomically():
    multicast = LocalAtomicMulticast(InprocTransport(2))
    multicast.register_replica(0)
    router = ShardRouter(ShardMap.initial(2, key_space=100), 2)
    multicast.shard_router = router
    new_map = router.shard_map.split(25).move(25, 2)
    multicast.multicast_shard_update({"update": 0}, new_map)
    assert multicast.shard_version == new_map.version == 2
    assert router.shard_map == new_map
    with pytest.raises(StaleShardRouteError):
        multicast.multicast(frozenset({1}), {"cmd": 2}, shard_version=0)
    with pytest.raises(ConfigurationError):
        multicast.multicast_shard_update({"update": 1}, new_map)  # stale map
