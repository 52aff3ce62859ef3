"""Integration tests for incremental (delta) checkpoints on the threaded runtime.

Threaded: periodic markers build full+delta chains per ``full_every``; a
crashed replica recovers by replaying on top of its own chain; one whose
log was truncated recovers via a *chain-suffix* transfer (only the deltas
it missed cross the wire); and the ROADMAP scenario — a replica crashing
and recovering while the surviving source is itself inside periodic
checkpoints — completes without hangs, without losing acknowledged writes,
and linearizably.
"""

import threading

from repro.common import codec
from repro.common.checkpoint import CheckpointPolicy
from repro.runtime import ThreadedPSMRCluster, check_linearizable
from repro.runtime.linearizability import HistoryRecorder
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def kv_cluster(mpl=2, replicas=2, initial_keys=16, **kwargs):
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=initial_keys),
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=20.0,
        **kwargs,
    )


#: A policy whose triggers never fire on their own: tests drive
#: ``periodic_checkpoint()`` explicitly for determinism.
def manual_policy(full_every=4, max_replay_lag=None):
    return CheckpointPolicy(
        every_messages=10_000_000,
        max_replay_lag=max_replay_lag,
        full_every=full_every,
    )


# ----------------------------------------------------------------------
# Threaded runtime
# ----------------------------------------------------------------------
def test_threaded_periodic_markers_build_delta_chains():
    with kv_cluster(checkpoint_policy=manual_policy(full_every=3)) as cluster:
        client = cluster.client()
        for round_index in range(5):
            for key in range(8):
                client.invoke("update", key=key, value=f"r{round_index}".encode())
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
        # full_every=3: full, delta, delta, full, delta.
        kinds = [entry["kind"] for entry in cluster.replicas[0].checkpoint_chain]
        assert kinds == ["full", "delta"]
        event_kinds = [
            event["kind"]
            for event in cluster.checkpoint_events
            if event["replica_id"] == 0
        ]
        assert event_kinds == ["full", "delta", "delta", "full", "delta"]
        # A delta encodes smaller than a full on this workload.
        full, delta = cluster.replicas[0].checkpoint_chain
        assert len(codec.encode(delta["payload"])) < len(codec.encode(full["payload"]))


def test_threaded_chain_length_follows_full_every():
    """Every replica's in-memory chain grows by one delta per cut and
    restarts at a new base once it holds ``full_every`` entries."""
    with kv_cluster(checkpoint_policy=manual_policy(full_every=3)) as cluster:
        client = cluster.client()
        lengths = []
        for round_index in range(7):
            client.invoke("update", key=round_index, value=b"x")
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
            per_replica = {len(r.checkpoint_chain) for r in cluster.replicas}
            assert len(per_replica) == 1
            lengths.extend(per_replica)
        assert lengths == [1, 2, 3, 1, 2, 3, 1]


def test_threaded_cut_and_recovery_reports_carry_only_their_fields():
    """A cut is reported by sequence, replica and kind, a recovery by
    replica, mode and entry count: no size is measured for either."""
    policy = manual_policy(full_every=2, max_replay_lag=10_000)
    with kv_cluster(checkpoint_policy=policy) as cluster:
        client = cluster.client()
        cut_sequences = []
        for round_index in range(2):
            client.invoke("update", key=1, value=f"r{round_index}".encode())
            cluster.wait_for_quiescence()
            cut_sequences.append(cluster.periodic_checkpoint())
        cluster.crash_replica(1)
        client.invoke("update", key=2, value=b"while down")
        cluster.recover_replica(1)
        cluster.crash_replica(0)
        cluster.recover_replica(0, source_replica_id=1)
        seq_a, seq_b = cut_sequences
        (seq_c,) = {
            e["sequence"] for e in cluster.checkpoint_events
            if e["sequence"] not in cut_sequences
        }
        # Two periodic cuts on each replica, then the donor's fresh cut.
        assert sorted(
            (e["replica_id"], e["sequence"], e["kind"])
            for e in cluster.checkpoint_events
        ) == [
            (0, seq_a, "full"), (0, seq_b, "delta"),
            (1, seq_a, "full"), (1, seq_b, "delta"), (1, seq_c, "full"),
        ]
        for event in cluster.checkpoint_events:
            assert set(event) == {"sequence", "replica_id", "kind"}
        assert [
            (t["replica_id"], t["mode"]) for t in cluster.recovery_transfers
        ] == [(1, "replay"), (0, "full")]
        for transfer in cluster.recovery_transfers:
            assert set(transfer) == {"replica_id", "mode", "entries"}


def test_threaded_replay_recovery_on_top_of_a_delta_chain():
    """A crashed replica restores base + deltas, then replays the log."""
    with kv_cluster(checkpoint_policy=manual_policy(full_every=4)) as cluster:
        client = cluster.client()
        for key in range(16):
            client.invoke("update", key=key, value=b"base")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # full
        for key in range(4):
            client.invoke("update", key=key, value=b"delta1")
        cluster.wait_for_quiescence()
        watermark = cluster.periodic_checkpoint()  # delta
        cluster.crash_replica(1)
        assert [e["kind"] for e in cluster.replicas[1].checkpoint_chain] == [
            "full", "delta",
        ]
        for key in range(8):
            client.invoke("update", key=key, value=b"while-down")
        client.invoke("insert", key=500, value=b"new")
        replica = cluster.recover_replica(1)
        assert replica.checkpoint_watermark == watermark
        assert cluster.recovery_transfers[-1]["mode"] == "replay"
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_threaded_chain_suffix_transfer_when_log_is_truncated():
    """Acceptance: a replica past its horizon whose cut is still on the
    donor's chain receives only the missed deltas, not a full snapshot."""
    policy = manual_policy(full_every=8, max_replay_lag=5)
    with kv_cluster(checkpoint_policy=policy, initial_keys=64) as cluster:
        client = cluster.client()
        for key in range(32):
            client.invoke("update", key=key, value=b"before")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # full base on both replicas
        for key in range(4):
            client.invoke("update", key=key, value=b"d1")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # delta 1 — the joiner's last cut
        joiner_watermark = cluster.replicas[1].checkpoint_watermark
        cluster.crash_replica(1)
        # Push far past the 5-message horizon, checkpointing as we go: the
        # donor's chain grows deltas the joiner misses, and truncation
        # eventually passes the joiner's watermark.
        for burst in range(2):
            for key in range(16):
                client.invoke("update", key=key, value=f"b{burst}".encode())
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
        assert cluster.replicas[1].needs_full_transfer
        assert cluster.multicast.min_retained() > joiner_watermark + 1
        replica = cluster.recover_replica(1)
        transfer = cluster.recovery_transfers[-1]
        assert transfer["mode"] == "chain-suffix"
        assert transfer["entries"] == 2  # exactly the two missed deltas
        chain = replica.checkpoint_chain
        assert [e["kind"] for e in chain] == ["full", "delta", "delta", "delta"]
        # The transferred suffix encodes smaller than a full snapshot.
        suffix_bytes = sum(len(codec.encode(e["payload"])) for e in chain[2:])
        assert suffix_bytes < len(codec.encode(chain[0]["payload"]))
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        counters = [r.service.commands_executed for r in cluster.replicas]
        assert counters[0] == counters[1]


def test_threaded_chain_transfer_respects_the_replay_horizon():
    """A donor chain that merely *contains* the joiner's cut is not enough:
    if the log replay after the donor's tip would exceed ``max_replay_lag``
    (the donor has not checkpointed recently), the chain path must refuse
    and recovery falls back to a fresh full transfer — never the
    O(history) replay the horizon forbids."""
    policy = manual_policy(full_every=8, max_replay_lag=5)
    with kv_cluster(checkpoint_policy=policy) as cluster:
        client = cluster.client()
        for key in range(8):
            client.invoke("update", key=key, value=b"before")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # both replicas cut at w; donor tip stays w
        cluster.crash_replica(1)
        for step in range(80):  # far past the 5-message horizon, no checkpoints
            client.invoke("update", key=step % 8, value=b"x")
        cluster.wait_for_quiescence()
        replica = cluster.recover_replica(1)
        assert cluster.recovery_transfers[-1]["mode"] == "full"
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_threaded_recovery_while_source_is_checkpointing():
    """ROADMAP scenario: crash and recover a replica while the surviving
    source is inside periodic checkpoints (a background scheduler keeps
    them coming).  No hang, no lost acknowledged suffix, linearizable."""
    recorder = HistoryRecorder()
    policy = CheckpointPolicy(every_messages=12, full_every=3, max_replay_lag=10_000)
    with kv_cluster(initial_keys=8, checkpoint_policy=policy) as cluster:
        stop = threading.Event()

        def churn():
            client = cluster.client()
            step = 0
            while not stop.is_set():
                key = step % 8
                if step % 2 == 0:
                    value = f"churn{step}"
                    recorder.timed_call(
                        0, "update", {"key": key, "value": value},
                        lambda k=key, v=value: client.invoke(
                            "update", key=k, value=v
                        ).error,
                    )
                else:
                    recorder.timed_call(
                        0, "read", {"key": key},
                        lambda k=key: _read_value(client, k),
                    )
                step += 1

        def _read_value(client, key):
            response = client.invoke("read", key=key)
            return response.value if response.error is None else None

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            client = cluster.client()
            for cycle in range(3):
                # Let the scheduler take checkpoints under load, then crash
                # and recover concurrently with whatever marker is in flight.
                for step in range(20):
                    recorder.timed_call(
                        1, "update", {"key": step % 8, "value": f"c{cycle}s{step}"},
                        lambda k=step % 8, v=f"c{cycle}s{step}": client.invoke(
                            "update", key=k, value=v
                        ).error,
                    )
                cluster.crash_replica(1)
                for step in range(10):
                    recorder.timed_call(
                        1, "update", {"key": step % 8, "value": f"down{cycle}s{step}"},
                        lambda k=step % 8, v=f"down{cycle}s{step}": client.invoke(
                            "update", key=k, value=v
                        ).error,
                    )
                cluster.recover_replica(1)
        finally:
            stop.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert cluster.checkpoints_taken > 0
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        counters = [r.service.commands_executed for r in cluster.replicas]
        assert counters[0] == counters[1]
    initial = {key: b"\x00" * 8 for key in range(8)}
    assert check_linearizable(recorder.operations, initial_state=initial)
