"""Integration tests: live shard migration on both runtimes (ISSUE 10).

The tentpole guarantees under test:

* a shard-map update is a totally-ordered barrier — commands routed
  under the old map order before it, commands under the new map after
  it, and the recorded client history stays linearizable across the
  migration (seeded episode, both runtimes);
* the hand-off artifact built at the cut restores to exactly the moved
  ranges' state (``verified`` flag from a fresh-service restore);
* replicas converge after migrations and the migration surface rejects
  invalid transitions.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.harness.nemesis import assert_episode_ok, run_shard_migration_episode
from repro.multicast.sharding import ShardMap
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def _threaded_cluster(mpl=4, key_space=256, num_replicas=2):
    return ThreadedPSMRCluster(
        KVSTORE_SPEC,
        lambda: KeyValueStoreServer(),
        mpl=mpl,
        num_replicas=num_replicas,
        barrier_timeout=15.0,
        seed=3,
        shard_map=ShardMap.initial(mpl, key_space=key_space),
    )


def test_threaded_explicit_split_and_move_migrates_state():
    with _threaded_cluster() as cluster:
        client = cluster.client()
        for key in range(0, 64):
            client.invoke("insert", key=key, value=key.to_bytes(2, "big"))
        old_map = cluster.shard_router.shard_map
        new_map = old_map.split(32)
        record = cluster.update_shard_map(new_map)
        # A pure split moves no ownership: nothing to hand off.
        assert record["moved_ranges"] == []
        assert record["to_version"] == 1
        moved_map = cluster.shard_router.shard_map.move(32, 4)
        record = cluster.update_shard_map(moved_map)
        assert record["moved_ranges"] == [(32, 64, 1, 4)]
        assert record["verified"] is True
        assert record["bytes"] > 0
        assert sorted(record["replicas"]) == [0, 1]
        # Routing follows the new map and service state is intact.
        assert cluster.cg.group_of_key(40) == 4
        for key in range(0, 64):
            response = client.invoke("read", key=key)
            assert response.error is None
            assert response.value == key.to_bytes(2, "big")
        snapshots = cluster.replica_snapshots()
        assert all(s == snapshots[0] for s in snapshots)
        assert [r["to_version"] for r in cluster.shard_migrations] == [1, 2]


def test_update_shard_map_rejects_bad_transitions():
    with _threaded_cluster() as cluster:
        current = cluster.shard_router.shard_map
        with pytest.raises(ConfigurationError):
            cluster.update_shard_map(current)  # version must advance by 1
        skipped = ShardMap(current.version + 2, current.bounds, current.groups)
        with pytest.raises(ConfigurationError):
            cluster.update_shard_map(skipped)
    plain = ThreadedPSMRCluster(
        KVSTORE_SPEC, lambda: KeyValueStoreServer(), mpl=2, num_replicas=1
    )
    with plain:
        with pytest.raises(ConfigurationError):
            cluster.update_shard_map(current)
        with pytest.raises(ConfigurationError):
            plain.rebalance_shards()


def test_rebalance_is_a_noop_under_even_load():
    with _threaded_cluster() as cluster:
        client = cluster.client()
        for key in range(0, 256, 4):  # even spread across all groups
            client.invoke("update", key=key, value=b"x")
        assert cluster.rebalance_shards(min_imbalance=1.25) is None
        assert cluster.shard_migrations == []


def test_threaded_migration_episode_is_linearizable():
    report = run_shard_migration_episode(20260808, runtime="threaded")
    assert_episode_ok(report)
    assert report["reproduce"] == (
        "run_shard_migration_episode(seed=20260808, runtime='threaded')"
    )
    assert report["migrations"]
    assert report["final_map_version"] >= 1
    assert all(record["verified"] for record in report["migrations"])


def test_proc_migration_episode_is_linearizable():
    report = run_shard_migration_episode(20260808, runtime="proc")
    assert_episode_ok(report)
    assert report["reproduce"] == (
        "run_shard_migration_episode(seed=20260808, runtime='proc')"
    )
    assert report["migrations"]
    assert all(record["verified"] for record in report["migrations"])


def test_proc_migration_survives_crash_and_disk_restart():
    cluster = ProcessPSMRCluster(
        service="kvstore",
        mpl=4,
        num_replicas=2,
        barrier_timeout=15.0,
        seed=5,
        shard_map=ShardMap.initial(4, key_space=128),
    )
    with cluster:
        client = cluster.client()
        for key in range(64):
            client.invoke("insert", key=key, value=key.to_bytes(2, "big"))
        for round_index in range(150):
            client.invoke("update", key=round_index % 16, value=b"hot")
        cluster.crash_replica(1)
        record = cluster.rebalance_shards(min_imbalance=1.05)
        assert record is not None and record["verified"]
        assert record["replicas"] == [0]  # only the live replica reports
        for key in range(64):
            client.invoke("update", key=key, value=b"after")
        # The restarted replica replays across the shard-update frame.
        cluster.restart_replica_from_disk(1)
        for key in range(16):
            client.invoke("update", key=key, value=b"final")
        snapshots = cluster.replica_snapshots()
        assert all(s == snapshots[0] for s in snapshots)
