"""Integration tests for crash/recovery on the threaded runtime.

The tests exercise the real lifecycle — crash a replica's worker threads
under load, recover via checkpoint transfer plus multicast log replay, and
verify convergence and linearizability.
"""

import threading
import time

import pytest

from repro.common.errors import RecoveryError
from repro.runtime import ThreadedPSMRCluster, check_linearizable
from repro.runtime.cluster import _Cut
from repro.runtime.linearizability import HistoryRecorder
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer
from repro.services.netfs import NETFS_SPEC, NetFSServer


def kv_cluster(mpl=4, replicas=3, initial_keys=32, **kwargs):
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=initial_keys),
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=20.0,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Threaded runtime: lifecycle basics
# ----------------------------------------------------------------------
def test_crash_and_recover_converges_without_load():
    with kv_cluster(replicas=2) as cluster:
        client = cluster.client()
        for key in range(100, 110):
            assert client.invoke("insert", key=key, value=b"x").error is None
        cluster.crash_replica(1)
        assert [r.replica_id for r in cluster.live_replicas()] == [0]
        # Commands executed while replica 1 is down.
        for key in range(110, 120):
            assert client.invoke("insert", key=key, value=b"y").error is None
        assert client.invoke("delete", key=100).error is None
        cluster.recover_replica(1)
        snapshots = cluster.replica_snapshots()
        assert len(snapshots) == 2
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0]) == 32 + 19


def test_crashed_replica_threads_terminate():
    with kv_cluster(replicas=2) as cluster:
        client = cluster.client()
        client.invoke("insert", key=1000, value=b"x")
        replica = cluster.crash_replica(1)
        for thread in replica.threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def test_lifecycle_misuse_raises():
    with kv_cluster(replicas=2) as cluster:
        with pytest.raises(RecoveryError):
            cluster.recover_replica(0)  # not crashed
        cluster.crash_replica(1)
        with pytest.raises(RecoveryError):
            cluster.crash_replica(1)  # already crashed
        with pytest.raises(RecoveryError):
            cluster.crash_replica(0)  # last live replica
        with pytest.raises(RecoveryError):
            cluster.checkpoint(replica_id=1)  # crashed source
        cluster.recover_replica(1)
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_checkpoint_marker_is_a_consistent_cut():
    with kv_cluster(replicas=2) as cluster:
        client = cluster.client()
        for key in range(200, 220):
            client.invoke("insert", key=key, value=b"v")
        sequence, state = cluster.checkpoint()
        restored = KeyValueStoreServer()
        restored.restore(state)
        cluster.wait_for_quiescence()
        assert restored.snapshot() == cluster.replicas[0].service.snapshot()
        assert sequence >= 0


def test_recovery_replays_only_the_log_suffix():
    """The restored service plus replay must not double-apply commands."""
    with kv_cluster(replicas=2, initial_keys=0) as cluster:
        client = cluster.client()
        for key in range(50):
            assert client.invoke("insert", key=key, value=b"a").error is None
        cluster.crash_replica(1)
        for key in range(50):
            # Re-inserting an existing key fails; deleting it succeeds once.
            assert client.invoke("delete", key=key).error is None
        for key in range(25):
            assert client.invoke("insert", key=key, value=b"b").error is None
        cluster.recover_replica(1)
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0]) == 25
        counters = [r.service.commands_executed for r in cluster.replicas]
        assert counters[0] == counters[1]


def test_netfs_recovery_preserves_descriptor_table():
    cluster = ThreadedPSMRCluster(
        spec=NETFS_SPEC, service_factory=NetFSServer, mpl=4, num_replicas=2
    )
    with cluster:
        client = cluster.client()
        client.invoke("mkdir", path="/a")
        client.invoke("mknod", path="/a/f")
        client.invoke("write", path="/a/f", data=b"hello", offset=0)
        fd = client.invoke("open", path="/a/f").value
        cluster.crash_replica(0)
        client.invoke("write", path="/a/f", data=b" world", offset=5)
        cluster.recover_replica(0)
        # The recovered replica honours a descriptor opened pre-crash.
        assert client.invoke("release", path="/a/f", fd=fd).error is None
        assert client.invoke("read", path="/a/f", size=16, offset=0).value == b"hello world"
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# Threaded runtime: recovery under concurrent load
# ----------------------------------------------------------------------
def test_stress_crash_and_recover_under_mixed_load():
    """N concurrent clients, mixed single/multi-group commands, one replica
    crashed and recovered mid-run; every replica converges."""
    with kv_cluster(mpl=4, replicas=3, initial_keys=64) as cluster:
        stop = threading.Event()
        errors = []

        def worker(client_index):
            client = cluster.client()
            step = 0
            try:
                while not stop.is_set():
                    key = (client_index * 17 + step) % 64
                    # Single-group commands (keyed routing).
                    client.invoke("update", key=key, value=f"{client_index}:{step}".encode())
                    client.invoke("read", key=key)
                    # Multi-group commands (serial routing) every few steps.
                    if step % 5 == 0:
                        client.invoke("insert", key=10_000 + client_index * 1000 + step, value=b"s")
                    if step % 11 == 0:
                        client.invoke("delete", key=(client_index * 13 + step) % 64, timeout=20)
                        client.invoke("insert", key=(client_index * 13 + step) % 64, value=b"r", timeout=20)
                    step += 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        cluster.crash_replica(1)
        time.sleep(0.3)
        cluster.recover_replica(1)
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1] == snapshots[2]
        checksums = {replica.service.checksum() for replica in cluster.replicas}
        assert len(checksums) == 1


def test_history_spanning_crash_and_recovery_is_linearizable():
    """Responses observed across a crash/recovery admit a linearization."""
    num_clients = 3
    with kv_cluster(mpl=3, replicas=2, initial_keys=4) as cluster:
        recorder = HistoryRecorder()
        # Clients plus the main thread rendezvous between phases so the
        # crash and the recovery land between well-defined operation sets.
        phase = threading.Barrier(num_clients + 1)
        errors = []

        def do_ops(client, client_index, phase_index):
            for step in range(3):
                key = (client_index + step) % 3
                if (client_index + step + phase_index) % 2 == 0:
                    value = f"c{client_index}p{phase_index}s{step}"
                    recorder.timed_call(
                        client_index, "update", {"key": key, "value": value},
                        lambda k=key, v=value: client.invoke("update", key=k, value=v).error,
                    )
                else:
                    recorder.timed_call(
                        client_index, "read", {"key": key},
                        lambda k=key: _read_result(client, k),
                    )

        def _read_result(client, key):
            response = client.invoke("read", key=key)
            return response.value if response.error is None else None

        def worker(client_index):
            client = cluster.client()
            try:
                for phase_index in range(3):
                    phase.wait()
                    do_ops(client, client_index, phase_index)
                    phase.wait()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                phase.abort()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_clients)]
        for thread in threads:
            thread.start()
        phase.wait()  # phase 0: both replicas live
        phase.wait()
        cluster.crash_replica(1)
        phase.wait()  # phase 1: replica 1 down
        phase.wait()
        cluster.recover_replica(1)
        phase.wait()  # phase 2: recovered replica serving
        phase.wait()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        initial = {key: b"\x00" * 8 for key in range(4)}
        assert check_linearizable(recorder.operations, initial_state=initial)
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# Checkpoint/recovery bugfix regressions (threaded runtime)
# ----------------------------------------------------------------------
def test_checkpoint_honours_explicit_zero_timeout():
    """Regression: ``timeout=0`` used to fall through ``timeout or default``
    into the full barrier timeout (20 s here) instead of timing out at once."""
    cluster = kv_cluster(replicas=2)  # never started: no marker ever executes
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        cluster.checkpoint(timeout=0)
    with pytest.raises(TimeoutError):
        cluster.checkpoint(timeout=0.05)
    assert time.monotonic() - started < 5.0


class _GatedKVServer(KeyValueStoreServer):
    """A replica service that parks its worker inside ``apply`` on one key."""

    GATE_KEY = 3

    def __init__(self, gate, **kwargs):
        super().__init__(**kwargs)
        self._gate = gate

    def apply(self, command):
        if command.name == "update" and command.args.get("key") == self.GATE_KEY:
            self._gate.wait(10)
        return super().apply(command)


def test_checkpoint_source_crashing_mid_marker_raises_recovery_error():
    """Regression: a source that crashes after the marker is multicast but
    before delivering its checkpoint used to hang the caller for the whole
    barrier timeout and then raise a bare TimeoutError."""
    gate = threading.Event()
    built = []

    def factory():
        index = len(built)
        built.append(index)
        if index == 1:  # replica 1 is the gated one
            return _GatedKVServer(gate, initial_keys=8)
        return KeyValueStoreServer(initial_keys=8)

    cluster = ThreadedPSMRCluster(
        spec=KVSTORE_SPEC, service_factory=factory, mpl=2, num_replicas=2,
        barrier_timeout=30.0,
    )
    with cluster:
        client = cluster.client()
        # Replica 0 executes and responds; replica 1's worker parks in apply,
        # so the marker multicast next can never be delivered by replica 1.
        client.invoke("update", key=_GatedKVServer.GATE_KEY, value=b"block")
        outcome = {}

        def checkpoint_crashed_source():
            try:
                cluster.checkpoint(replica_id=1, timeout=30)
            except Exception as exc:  # noqa: BLE001 - the exception IS the assertion
                outcome["exc"] = exc

        waiter = threading.Thread(target=checkpoint_crashed_source)
        waiter.start()
        time.sleep(0.2)
        # Unblock the parked worker shortly after the crash so its thread
        # can observe the crash flag and terminate.
        threading.Timer(0.2, gate.set).start()
        crashed_at = time.monotonic()
        cluster.crash_replica(1)
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        # Prompt RecoveryError naming the crashed source, not a 30 s hang.
        assert isinstance(outcome["exc"], RecoveryError)
        assert "1" in str(outcome["exc"])
        assert time.monotonic() - crashed_at < 10.0
        cluster.recover_replica(1)


def test_a_cut_keeps_each_replica_s_first_outcome():
    """A report that landed before a crash wins over it, a crash that came
    first wins over a late report, a report settled from another thread
    wakes the waiter, and a replica that never reports times out."""
    cut = _Cut()
    report = {"sequence": 7}
    cut.settle(0, report)
    cut.settle(0, RecoveryError("crashed after reporting"))
    cut.settle(1, RecoveryError("crashed first"))
    cut.settle(1, {"sequence": 7})
    assert cut.wait_for(0, timeout=1.0) is report
    with pytest.raises(RecoveryError, match="crashed first"):
        cut.wait_for(1, timeout=1.0)
    late = threading.Timer(0.05, cut.settle, (2, report))
    late.start()
    assert cut.wait_for(2, timeout=5.0) is report
    late.join(5.0)
    with pytest.raises(TimeoutError):
        cut.wait_for(3, timeout=0.05)


def test_recover_replica_validates_explicit_source_up_front():
    with kv_cluster(replicas=3) as cluster:
        client = cluster.client()
        client.invoke("insert", key=500, value=b"x")
        cluster.crash_replica(1)
        cluster.crash_replica(2)
        started = time.monotonic()
        with pytest.raises(RecoveryError):
            cluster.recover_replica(1, source_replica_id=1)  # itself
        with pytest.raises(RecoveryError):
            cluster.recover_replica(1, source_replica_id=2)  # crashed source
        with pytest.raises(RecoveryError):
            cluster.recover_replicas([1, 2], source_replica_id=2)  # being recovered
        assert time.monotonic() - started < 5.0  # no marker was ever multicast
        cluster.recover_replicas([1, 2])
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1] == snapshots[2]


# ----------------------------------------------------------------------
# Waiter bookkeeping regressions (threaded client plumbing)
# ----------------------------------------------------------------------
def test_invoke_timeout_does_not_leak_waiters():
    # The cluster is never started: no replica will ever respond.
    cluster = kv_cluster(replicas=2)
    client = cluster.client()
    for _ in range(3):
        with pytest.raises(TimeoutError):
            client.invoke("read", key=0, timeout=0.05)
    assert cluster._waiters == {}
    assert cluster._responses == {}


def test_response_without_waiter_is_dropped():
    cluster = kv_cluster(replicas=2)
    from repro.core.command import Response

    cluster._respond((99, 0), Response(uid=(99, 0), value=b"late"))
    assert cluster._responses == {}
