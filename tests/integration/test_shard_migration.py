"""Integration tests: live shard migration on both runtimes (ISSUE 10).

The tentpole guarantees under test:

* a shard-map update is a totally-ordered barrier — commands routed
  under the old map order before it, commands under the new map after
  it, and the recorded client history stays linearizable across the
  migration (seeded episode, both runtimes);
* the update's barrier is the whole move: a moved key's old group
  finishes what was ordered before the switch before its new group
  starts on what is ordered after it (no state moves — every replica
  holds all of it);
* replicas converge after migrations and the migration surface rejects
  invalid transitions.
"""

import threading
import time

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


class _SlowUpdateKVServer(KeyValueStoreServer):
    """A KV store whose updates take long enough to still be running when
    a shard cut arrives behind them."""

    def execute(self, name, args):
        if name == "update":
            time.sleep(0.3)
        return super().execute(name, args)


def test_shard_cut_finishes_the_old_group_before_the_new_one_starts():
    cluster = ThreadedPSMRCluster(
        KVSTORE_SPEC,
        lambda: _SlowUpdateKVServer(initial_keys=8),
        mpl=4,
        num_replicas=1,
        barrier_timeout=15.0,
        seed=3,
        shard_map=ShardMap.initial(4, key_space=256),
    )
    with cluster:
        client = cluster.client()
        old_map = cluster.shard_router.shard_map
        assert cluster.cg.group_of_key(3) == 1
        pending = client.invoke_async("update", key=3, value=b"new")
        mover = threading.Thread(
            target=cluster.update_shard_map, args=(old_map.move(0, 4),)
        )
        mover.start()
        deadline = time.monotonic() + 10.0
        while cluster.shard_router.version == old_map.version:
            assert time.monotonic() < deadline, "the shard map never switched"
            time.sleep(0.001)
        assert cluster.cg.group_of_key(3) == 4
        # Group 4 now orders key 3; its read is sequenced after the switch,
        # so it must see the update group 1 is still executing.
        assert client.invoke("read", key=3).value == b"new"
        assert pending.result().error is None
        mover.join(timeout=10.0)
        assert not mover.is_alive()
        assert [r["to_version"] for r in cluster.shard_migrations] == [1]


def test_a_migration_record_holds_the_move_and_its_barrier():
    with _threaded_cluster() as cluster:
        client = cluster.client()
        client.invoke("update", key=5, value=b"x")
        old_map = cluster.shard_router.shard_map
        record = cluster.update_shard_map(old_map.move(64, 1))
        assert set(record) == {
            "from_version",
            "to_version",
            "sequence",
            "moved_ranges",
            "duration_seconds",
            "replicas",
        }
        assert (record["from_version"], record["to_version"]) == (0, 1)
        assert record["moved_ranges"] == [(64, 128, 2, 1)]
        assert record["replicas"] == [0, 1]
        assert isinstance(record["sequence"], int)
        assert record["sequence"] > 0
        assert record["duration_seconds"] >= 0
        assert cluster.shard_migrations == [record]


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
        with pytest.raises(ConfigurationError, match="without a shard map"):
            plain.update_shard_map(current)
        with pytest.raises(ConfigurationError, match="without a shard map"):
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


def test_proc_migration_episode_is_linearizable():
    report = run_shard_migration_episode(20260808, runtime="proc")
    assert_episode_ok(report)
    assert report["reproduce"] == (
        "run_shard_migration_episode(seed=20260808, runtime='proc')"
    )
    assert report["migrations"]


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
        assert record is not None and record["moved_ranges"]
        assert record["replicas"] == [0]  # only the live replica reports
        for key in range(64):
            client.invoke("update", key=key, value=b"after")
        # The restarted replica replays across the shard cut.
        cluster.restart_replica_from_disk(1)
        for key in range(16):
            client.invoke("update", key=key, value=b"final")
        snapshots = cluster.replica_snapshots()
        assert all(s == snapshots[0] for s in snapshots)
