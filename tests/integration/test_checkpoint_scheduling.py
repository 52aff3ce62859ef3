"""Integration tests for periodic checkpointing and log truncation.

Threaded side: the background scheduler keeps ``multicast.log_size()``
bounded under sustained load; a crashed replica inside its replayable
horizon recovers by replaying its own checkpoint's log suffix; one past the
horizon is marked for full state transfer and recovers that way with
linearizability preserved; simultaneous multi-replica failures heal from a
single shared checkpoint.
"""

import threading
import time

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
# A cut takes the snapshot and keeps it: nothing walks the payload
# ----------------------------------------------------------------------
class _ReadRecordingDict(dict):
    """A checkpoint payload that notes every way of walking it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def items(self):
        self.reads.append("items")
        return super().items()

    def keys(self):
        self.reads.append("keys")
        return super().keys()

    def values(self):
        self.reads.append("values")
        return super().values()

    def __iter__(self):
        self.reads.append("iter")
        return super().__iter__()


class _RecordingServer(KeyValueStoreServer):
    def __init__(self, taken, **kwargs):
        super().__init__(**kwargs)
        self._taken = taken

    def checkpoint(self):
        payload = _ReadRecordingDict(super().checkpoint())
        self._taken.append(payload)
        return payload


def test_a_store_less_cut_never_reads_its_snapshot():
    taken = []
    with ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: _RecordingServer(taken, initial_keys=16),
        mpl=2,
        num_replicas=2,
        barrier_timeout=20.0,
        checkpoint_policy=manual_policy(),
    ) as cluster:
        client = cluster.client()
        for key in range(8):
            client.invoke("update", key=key, value=b"v")
        assert cluster.periodic_checkpoint() is not None
        assert len(taken) == 2  # one full snapshot per replica
        assert [payload.reads for payload in taken] == [[], []]
