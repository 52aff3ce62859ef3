"""Batched delivery and execution in the threaded runtime (ISSUE 6 tentpole).

Workers drain a *batch* of delivered commands per wakeup and hand their
responses back in one batch too.  These tests pin the semantics that must
survive the optimisation:

* a batched execution is indistinguishable from one service executing
  the same commands one at a time — same states, same responses;
* checkpoint markers cut exactly at batch boundaries
  (``marker_boundary_violations`` stays zero) and recovery from those
  checkpoints still converges;
* pipelined clients (``invoke_async``) actually fill batches, and the
  resulting concurrent histories stay linearizable.

The threaded runtime hands commands over by reference; the encoded path
is the process runtime's (``test_process_cluster.py`` runs every command
kind over it and against this runtime).
"""

import itertools
import threading
import time

from repro.common.checkpoint import CheckpointPolicy
from repro.core.command import Command
from repro.runtime import ThreadedPSMRCluster, check_linearizable
from repro.runtime.linearizability import HistoryRecorder
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def kv_cluster(mpl=4, replicas=2, initial_keys=32, **kwargs):
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=initial_keys),
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=20.0,
        **kwargs,
    )


def run_mixed_workload(client, steps=60):
    """A deterministic single-client workload touching every command type."""
    results = []
    for step in range(steps):
        key = step % 16
        if step % 10 == 7:
            results.append(("insert", client.invoke("insert", key=1000 + step, value=b"s").error))
        elif step % 10 == 9:
            results.append(("delete", client.invoke("delete", key=1000 + step - 2).error))
        elif step % 2 == 0:
            results.append(("update", client.invoke("update", key=key, value=bytes([step % 251])).error))
        else:
            results.append(("read", client.invoke("read", key=key).value))
    return results


class TestBatchedSemantics:
    def test_batched_matches_one_at_a_time(self):
        with kv_cluster() as cluster:
            results = run_mixed_workload(cluster.client())
            snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        # The reference: one service, no cluster, one command per call.
        service = KeyValueStoreServer(initial_keys=32)
        uids = itertools.count()

        class Sequential:
            def invoke(self, name, **args):
                return service.apply(Command((0, next(uids)), name, args))

        assert results == run_mixed_workload(Sequential())
        assert snapshots[0] == service.snapshot()

    def test_pipelined_clients_fill_batches(self):
        with kv_cluster(mpl=2) as cluster:
            client = cluster.client()
            window = [
                client.invoke_async("update", key=i % 16, value=b"p")
                for i in range(200)
            ]
            for pending in window:
                assert pending.result(timeout=20.0).error is None
            cluster.wait_for_quiescence()
            stats = cluster.delivery_batch_stats()
            assert stats["messages_delivered"] > 0
            # Pipelining must produce real amortisation, not 1-per-wakeup.
            assert stats["avg_batch"] > 1.5

    def test_pipelined_history_is_linearizable(self):
        with kv_cluster(mpl=3, initial_keys=4) as cluster:
            recorder = HistoryRecorder()
            barrier = threading.Barrier(3)

            def worker(client_index):
                client = cluster.client()
                barrier.wait()
                for step in range(5):
                    key = step % 3
                    if (client_index + step) % 2 == 0:
                        recorder.timed_call(
                            client_index, "update",
                            {"key": key, "value": bytes([client_index])},
                            lambda k=key, c=client_index: client.invoke(
                                "update", key=k, value=bytes([c])
                            ).error,
                        )
                    else:
                        recorder.timed_call(
                            client_index, "read", {"key": key},
                            lambda k=key: client.invoke("read", key=k).value,
                        )

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            initial = {key: b"\x00" * 8 for key in range(4)}
            assert check_linearizable(recorder.operations, initial_state=initial)


class TestMarkersAtBatchBoundaries:
    def test_markers_cut_batches_cleanly_under_load(self, tmp_path):
        policy = CheckpointPolicy(every_messages=40, full_every=3)
        with kv_cluster(
            mpl=2, checkpoint_policy=policy, store_dir=str(tmp_path)
        ) as cluster:
            client = cluster.client()
            window = [
                client.invoke_async("update", key=i % 16, value=bytes([i % 251]))
                for i in range(400)
            ]
            for pending in window:
                assert pending.result(timeout=20.0).error is None
            cluster.wait_for_quiescence()
            # The scheduler thread counts a checkpoint only once its round
            # has collected every replica's report, which may still be in
            # flight when the replicas look quiescent.
            deadline = time.monotonic() + 20.0
            while cluster.checkpoints_taken < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cluster.checkpoints_taken >= 1
            assert cluster.marker_boundary_violations == 0
            snapshots = cluster.replica_snapshots()
            assert snapshots[0] == snapshots[1]

    def test_recovery_replays_into_batched_workers(self):
        policy = CheckpointPolicy(every_messages=30)
        with kv_cluster(mpl=2, checkpoint_policy=policy) as cluster:
            client = cluster.client()
            for i in range(60):
                client.invoke("update", key=i % 16, value=b"before")
            cluster.crash_replica(1)
            for i in range(40):
                client.invoke("update", key=i % 16, value=b"after")
            cluster.recover_replica(1)
            snapshots = cluster.replica_snapshots()
            assert snapshots[0] == snapshots[1]
            assert cluster.marker_boundary_violations == 0

    def test_explicit_checkpoint_during_batched_load(self):
        with kv_cluster(mpl=2) as cluster:
            client = cluster.client()
            window = [
                client.invoke_async("update", key=i % 8, value=b"c")
                for i in range(120)
            ]
            sequence, state = cluster.checkpoint()
            assert state is not None
            for pending in window:
                assert pending.result(timeout=20.0).error is None
            # The snapshot reflects a consistent cut at the marker: its
            # command count never exceeds what was multicast before it.
            assert 0 <= state["commands_executed"] <= 120
            assert cluster.marker_boundary_violations == 0
