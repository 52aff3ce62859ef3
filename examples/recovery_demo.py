#!/usr/bin/env python3
"""Crash/recovery demo on the threaded cluster.

Part 1 drives the threaded cluster through a full lifecycle: load, crash a
replica, keep serving, recover it (checkpoint transfer + log replay) and
show that every replica converges to the same state.

Part 2 turns on a periodic CheckpointPolicy: the background scheduler keeps
the multicast replay log bounded while commands flow, a replica crashed past
its replayable horizon is recovered via full state transfer, and two
simultaneously-crashed replicas heal from one shared checkpoint.

Run with:  python examples/recovery_demo.py
"""

from repro.runtime import CheckpointPolicy, ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def threaded_lifecycle():
    print("Threaded cluster: crash and recover a replica")
    cluster = ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=16),
        mpl=4,
        num_replicas=3,
    )
    with cluster:
        client = cluster.client()
        for key in range(100, 150):
            client.invoke("insert", key=key, value=b"v1")
        cluster.crash_replica(2)
        print("  crashed replica 2; live replicas:",
              [replica.replica_id for replica in cluster.live_replicas()])
        for key in range(100, 125):
            client.invoke("update", key=key, value=b"v2")
        for key in range(150, 170):
            client.invoke("insert", key=key, value=b"v3")
        replica = cluster.recover_replica(2)
        print("  recovered replica 2 from a peer checkpoint + log replay")
        snapshots = cluster.replica_snapshots()
        converged = snapshots[0] == snapshots[1] == snapshots[2]
        print(f"  replicas converged: {converged}  "
              f"(keys per replica: {[len(s) for s in snapshots]}, "
              f"recovered executed {replica.service.commands_executed} commands)")


def periodic_checkpointing():
    print("\nThreaded cluster: periodic checkpoints keep the replay log bounded")
    policy = CheckpointPolicy(every_messages=50, max_replay_lag=200)
    cluster = ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=16),
        mpl=2,
        num_replicas=3,
        checkpoint_policy=policy,
    )
    with cluster:
        client = cluster.client()
        for step in range(400):
            client.invoke("update", key=step % 16, value=f"v{step}".encode())
        print(f"  after 400 commands: log_size={cluster.multicast.log_size()} "
              f"(checkpoints={cluster.checkpoints_taken}, "
              f"truncations={cluster.truncations})")
        cluster.crash_replicas([1, 2])
        for step in range(300):  # push the victims past their 200-message horizon
            client.invoke("update", key=step % 16, value=b"while-down")
        cluster.periodic_checkpoint()
        print(f"  replica 1 needs full transfer: "
              f"{cluster.replicas[1].needs_full_transfer}")
        cluster.recover_replicas([1, 2])  # one shared checkpoint for both
        snapshots = cluster.replica_snapshots()
        print(f"  recovered both from one checkpoint; converged: "
              f"{snapshots[0] == snapshots[1] == snapshots[2]}")


def main():
    threaded_lifecycle()
    periodic_checkpointing()


if __name__ == "__main__":
    main()
