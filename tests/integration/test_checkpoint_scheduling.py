"""Integration tests for periodic checkpointing and log truncation.

Threaded side: the background scheduler keeps ``multicast.log_size()``
bounded under sustained load; a crashed replica inside its replayable
horizon recovers by replaying its own checkpoint's log suffix; one past the
horizon is marked for full state transfer and recovers that way with
linearizability preserved; simultaneous multi-replica failures heal from a
single shared checkpoint.  Simulated side: the same policy runs at virtual
times, with truncation free and the periodic-checkpoint overhead visible in
throughput.
"""

import threading
import time

from repro.common.checkpoint import CheckpointPolicy
from repro.harness.experiments.recovery import run_checkpoint_scaling
from repro.harness.runner import build_kv_system
from repro.runtime import ThreadedPSMRCluster, check_linearizable
from repro.runtime.linearizability import HistoryRecorder
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer
from repro.workload import mixed_workload


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
def manual_policy(max_replay_lag=None):
    return CheckpointPolicy(every_messages=10_000_000, max_replay_lag=max_replay_lag)


# ----------------------------------------------------------------------
# Threaded runtime: the background scheduler bounds the log
# ----------------------------------------------------------------------
def test_scheduler_keeps_log_bounded_under_sustained_load():
    policy = CheckpointPolicy(every_messages=40)
    with kv_cluster(checkpoint_policy=policy) as cluster:
        client = cluster.client()
        samples = []
        total = 800
        for step in range(total):
            key = step % 16
            client.invoke("update", key=key, value=f"v{step}".encode())
            if step % 50 == 49:
                samples.append(cluster.multicast.log_size())
        # Bounded: the log never approaches the number of messages sent.
        assert max(samples) < total // 2
        assert cluster.checkpoints_taken > 0
        assert cluster.truncations > 0
        # After one final explicit checkpoint the log shrinks to the tail
        # ordered after the last marker.
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()
        assert cluster.multicast.log_size() <= 8
        assert cluster.multicast.min_retained() > 0


def test_recovery_inside_horizon_replays_own_checkpoint():
    """A crashed replica within its replayable horizon recovers from its own
    last local checkpoint plus log-suffix replay — no peer state transfer."""
    with kv_cluster(checkpoint_policy=manual_policy(max_replay_lag=10_000)) as cluster:
        client = cluster.client()
        for key in range(16):
            client.invoke("update", key=key, value=b"before")
        cluster.wait_for_quiescence()
        watermark = cluster.periodic_checkpoint()
        assert watermark is not None and watermark >= 0
        cluster.crash_replica(1)
        for key in range(16):
            client.invoke("update", key=key, value=b"while-down")
        client.invoke("insert", key=999, value=b"new")
        replica = cluster.recover_replica(1)
        assert not replica.needs_full_transfer
        # No marker was ordered after the periodic one, so replay leaves the
        # watermark exactly where the crashed replica's checkpoint put it.
        assert replica.checkpoint_watermark == watermark
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        counters = [r.service.commands_executed for r in cluster.replicas]
        assert counters[0] == counters[1]


def test_recovery_past_horizon_falls_back_to_full_state_transfer():
    """Acceptance: a replica crashed past its replayable horizon is marked
    for full state transfer, recovers that way, and the history observed
    across the whole lifecycle stays linearizable."""
    recorder = HistoryRecorder()
    with kv_cluster(checkpoint_policy=manual_policy(max_replay_lag=30)) as cluster:
        clients = [cluster.client() for _ in range(2)]

        def do_phase(phase_index):
            threads = []
            for client_index, client in enumerate(clients):
                def ops(client=client, client_index=client_index):
                    for step in range(3):
                        key = (client_index + step) % 4
                        if (client_index + step + phase_index) % 2 == 0:
                            value = f"c{client_index}p{phase_index}s{step}"
                            recorder.timed_call(
                                client_index, "update", {"key": key, "value": value},
                                lambda k=key, v=value: client.invoke(
                                    "update", key=k, value=v
                                ).error,
                            )
                        else:
                            recorder.timed_call(
                                client_index, "read", {"key": key},
                                lambda k=key: _read_value(client, k),
                            )
                thread = threading.Thread(target=ops)
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        def _read_value(client, key):
            response = client.invoke("read", key=key)
            return response.value if response.error is None else None

        do_phase(0)
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()
        cluster.crash_replica(1)
        # Push the crashed replica far past its 30-message horizon.
        filler = cluster.client()
        for step in range(80):
            filler.invoke("update", key=4 + step % 8, value=b"x")
        do_phase(1)
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()
        assert cluster.replicas[1].needs_full_transfer
        # The log really was truncated past the crashed replica's watermark.
        assert cluster.multicast.min_retained() > cluster.replicas[1].checkpoint_watermark + 1
        replica = cluster.recover_replica(1)
        assert not replica.needs_full_transfer
        do_phase(2)
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
    initial = {key: b"\x00" * 8 for key in range(16)}
    assert check_linearizable(recorder.operations, initial_state=initial)


def test_simultaneous_two_replica_crash_recovers_from_shared_checkpoint():
    with kv_cluster(replicas=3, initial_keys=8) as cluster:
        client = cluster.client()
        for key in range(8):
            client.invoke("update", key=key, value=b"before")
        cluster.crash_replicas([1, 2])
        assert [r.replica_id for r in cluster.live_replicas()] == [0]
        for key in range(8):
            client.invoke("update", key=key, value=b"while-down")
        client.invoke("insert", key=100, value=b"new")
        recovered = cluster.recover_replicas([1, 2])
        assert [r.replica_id for r in recovered] == [1, 2]
        # One shared checkpoint: both recovered replicas restored the same
        # marker cut (identical watermarks) and the states are independent.
        assert recovered[0].checkpoint_watermark == recovered[1].checkpoint_watermark
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1] == snapshots[2]
        counters = [r.service.commands_executed for r in cluster.replicas]
        assert len(set(counters)) == 1


# ----------------------------------------------------------------------
# Simulated runtime: the mirrored policy at virtual times
# ----------------------------------------------------------------------
def sim_system(**kwargs):
    return build_kv_system(
        "P-SMR", 4, mix=mixed_workload(0.1), execute_state=True,
        initial_keys=64, key_space=256, seed=5, **kwargs,
    )


def test_sim_periodic_checkpoints_truncate_log_and_cost_throughput():
    baseline = sim_system()
    baseline_result = baseline.run(warmup=0.01, duration=0.06)
    system = sim_system(
        checkpoint_policy=CheckpointPolicy(every_seconds=0.004)
    )
    result = system.run(warmup=0.01, duration=0.06)
    done = [ticket for ticket in system.checkpoints if ticket.done]
    assert len(done) >= 3
    # Truncation is zero-cost bookkeeping, so the log shrinks...
    assert system.log_size() < system.log_appends
    assert system.log_size() == system.log_appends - max(t.append_count for t in done)
    # ...but the checkpoints themselves are not free: every replica's
    # executor pays the serialisation time, which costs client throughput.
    assert result.completed <= baseline_result.completed
    assert baseline.log_size() == baseline.log_appends  # no policy, no truncation


def test_sim_message_count_trigger_and_crash_completion():
    system = sim_system(
        checkpoint_policy=CheckpointPolicy(every_messages=2000)
    )
    system.schedule_crash(1, 0.02)
    result = system.run(warmup=0.01, duration=0.05)
    assert result.completed > 0
    assert len(system.checkpoints) >= 1
    # Markers waiting on the crashed replica complete against the shrunken
    # live set instead of sticking forever.
    assert any(ticket.done for ticket in system.checkpoints)
    assert system.log_size() < system.log_appends


def test_sim_checkpoints_continue_after_a_crash_recovery_cycle():
    """Regression: a marker in flight across a crash/recovery must not get
    stuck waiting on the recovered replica (which skipped it while down) —
    that would silently stall every later checkpoint and unbound the log."""
    system = sim_system(checkpoint_policy=CheckpointPolicy(every_seconds=0.003))
    system.schedule_crash(1, 0.015)
    system.schedule_recovery(1, 0.025)
    system.run(warmup=0.01, duration=0.08)
    record = system.recoveries[0]
    assert record.done
    completed_after_recovery = [
        ticket
        for ticket in system.checkpoints
        if ticket.done and ticket.started_at > record.completed_at
    ]
    assert len(completed_after_recovery) >= 2


def test_checkpoint_scaling_experiment_reports_latency_vs_state_size():
    result = run_checkpoint_scaling(
        warmup=0.008, duration=0.04, seed=3, state_sizes=(32, 512),
        checkpoint_every_seconds=0.005,
    )
    assert result["figure"] == "checkpoint-scaling"
    rows = result["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["catch_up_ms"] is not None and row["catch_up_ms"] > 0
        assert row["checkpoints"] > 0
        # The policy keeps the steady-state log well below everything ordered.
        assert row["steady_log_size"] < row["ordered_total"]
    assert rows[1]["checkpoint_kb"] > rows[0]["checkpoint_kb"]
    assert "Checkpoint scaling" in result["text"]
