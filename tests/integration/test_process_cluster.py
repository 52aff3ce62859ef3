"""Integration tests for the process-per-replica runtime (ISSUE 8).

Every replica here is a real OS process reached over TCP: crashes are
literal ``SIGKILL``s, restarts re-exec the replica binary against its
durable store, and injected faults mangle actual socket frames.  The
tests use fixed seeds so any failure reproduces with one command.
"""

import asyncio
import os
import random
import signal
import threading
import time

import pytest

from repro.common.checkpoint import CheckpointPolicy
from repro.common.errors import CheckpointError, RecoveryError
from repro.common.faults import FaultPlane, Nemesis
from repro.frontend import ClusterBackend, create_app
from repro.frontend.testing import AsgiClient
from repro.fs import Stat
from repro.harness.nemesis import (
    LIVE,
    THREADED_KINDS,
    assert_episode_ok,
    run_live_nemesis_episode,
)
from repro.multicast.sharding import ShardMap
from repro.runtime import (
    ProcessPSMRCluster,
    ThreadedPSMRCluster,
    check_linearizable,
)
from repro.runtime.linearizability import HistoryRecorder
from repro.runtime.transport import TcpCoordinatorTransport
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def proc_cluster(mpl=2, replicas=2, initial_keys=16, barrier_timeout=20.0,
                 **kwargs):
    return ProcessPSMRCluster(
        service="kvstore",
        service_args={"initial_keys": initial_keys},
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=barrier_timeout,
        **kwargs,
    )


def test_basic_operations_and_convergence():
    with proc_cluster() as cluster:
        client = cluster.client()
        assert client.invoke("read", key=1).error is None
        assert client.invoke("update", key=1, value=b"new").error is None
        assert client.invoke("read", key=1).value == b"new"
        assert client.invoke("read", key=999).error is not None
        assert client.invoke("insert", key=500, value=b"s").error is None
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        assert cluster.marker_boundary_violations == 0


def test_replica_processes_are_real_and_distinct(transport_threads):
    with proc_cluster(replicas=2) as cluster:
        pids = {replica.pid for replica in cluster.replicas}
        assert len(pids) == 2
        assert os.getpid() not in pids
        for pid in pids:
            os.kill(pid, 0)  # alive (signal 0 = existence probe)
        # The runner's side of the links: the one I/O loop thread, not a
        # thread per replica nor a thread of its own.
        assert transport_threads() == ["psmr-io"]
    assert transport_threads() == ["psmr-io"]
    assert cluster.transport._peers == set()


def test_sigkill_mid_load_then_restart_from_disk_is_linearizable(tmp_path):
    """The ISSUE 8 acceptance path: kill -9 a replica mid-load, restart it
    from its durable store, and require the full oracle — linearizable
    probe history, converged snapshots, zero marker boundary violations."""
    policy = CheckpointPolicy(every_messages=200, full_every=2)
    cluster = proc_cluster(
        replicas=3, initial_keys=8, checkpoint_policy=policy,
        store_dir=str(tmp_path), seed=11,
    )
    with cluster:
        recorder = HistoryRecorder()
        errors = []

        def probe(client_index):
            client = cluster.client()
            rng = random.Random(100 + client_index)
            try:
                for step in range(40):
                    key = rng.randrange(4)
                    if rng.random() < 0.5:
                        value = f"c{client_index}s{step}".encode()
                        recorder.timed_call(
                            client_index, "update", {"key": key, "value": value},
                            lambda k=key, v=value: client.invoke(
                                "update", key=k, value=v, timeout=30
                            ).error,
                        )
                    else:
                        recorder.timed_call(
                            client_index, "read", {"key": key},
                            lambda k=key: _read(client, k),
                        )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def _read(client, key):
            response = client.invoke("read", key=key, timeout=30)
            return response.value if response.error is None else None

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()

        # Persist a durable cut, then kill -9 the replica mid-load.
        cluster.checkpoint()
        victim = cluster.crash_replica(1)
        with pytest.raises(ProcessLookupError):
            os.kill(victim.pid, 0)  # the kernel really reaped it
        cluster.restart_replica_from_disk(1)

        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        cluster.wait_for_quiescence(timeout=30)
        snapshots = cluster.replica_snapshots(quiesce=False)
        assert len(snapshots) == 3
        assert all(s == snapshots[0] for s in snapshots)
        assert cluster.marker_boundary_violations == 0
        assert [t["mode"] for t in cluster.recovery_transfers]  # some path ran
    initial = {key: b"\x00" * 8 for key in range(8)}
    assert check_linearizable(recorder.operations, initial_state=initial)


def test_recover_replica_is_always_a_full_transfer():
    with proc_cluster(replicas=3) as cluster:
        client = cluster.client()
        for step in range(20):
            client.invoke("update", key=step % 16, value=f"v{step}".encode())
        cluster.crash_replica(2)
        cluster.recover_replica(2)
        assert [t["mode"] for t in cluster.recovery_transfers] == ["full"]
        snapshots = cluster.replica_snapshots()
        assert len(snapshots) == 3
        assert all(s == snapshots[0] for s in snapshots)


def test_restart_from_disk_takes_the_chain_suffix_rung(tmp_path):
    """A restarted process whose disk cut is past the replay horizon but
    still on the donor's chain is sent only the deltas it missed (the
    ``chain?`` request), then converges with the survivor."""
    policy = CheckpointPolicy(
        every_messages=10_000_000, max_replay_lag=5, full_every=8
    )
    with proc_cluster(
        initial_keys=64, checkpoint_policy=policy, store_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client()
        for key in range(32):
            client.invoke("update", key=key, value=b"before")
        cluster.periodic_checkpoint()  # full base on both replicas
        for key in range(4):
            client.invoke("update", key=key, value=b"d1")
        cluster.periodic_checkpoint()  # delta 1: the joiner's disk cut
        joiner_watermark = cluster.replicas[1].watermark
        cluster.crash_replica(1)
        for burst in range(2):
            for key in range(16):
                client.invoke("update", key=key, value=f"b{burst}".encode())
            cluster.periodic_checkpoint()  # deltas the joiner misses
        assert cluster.multicast.min_retained() > joiner_watermark + 1
        cluster.restart_replica_from_disk(1)
        transfer = cluster.recovery_transfers[-1]
        assert transfer["mode"] == "chain-suffix"
        assert transfer["entries"] == 2
        assert cluster.replicas[1].watermark == cluster.replicas[0].watermark
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_fault_plane_mangles_real_socket_frames():
    plane = FaultPlane(seed=5, retransmit_backoff=0.01)
    plane.set_link(drop=0.1, delay=0.2, delay_range=(0.001, 0.01))
    with proc_cluster(replicas=2, fault_plane=plane) as cluster:
        client = cluster.client()
        plane.isolate("replica1")
        for step in range(15):
            # First response wins: the healthy replica keeps serving.
            assert client.invoke(
                "update", key=step % 16, value=f"v{step}".encode(), timeout=30
            ).error is None
        plane.heal()
        for step in range(15):
            assert client.invoke("read", key=step % 16, timeout=30).error is None
        cluster.wait_for_quiescence(timeout=30)
        snapshots = cluster.replica_snapshots(quiesce=False)
        assert snapshots[0] == snapshots[1]
        assert cluster.marker_boundary_violations == 0
    stats = plane.stats
    assert stats["delayed"] > 0
    assert stats["retransmits"] > 0


def test_pipelined_burst_with_a_marker_mid_burst():
    """The burst path end to end: one client pipelines 2,048 commands
    before collecting anything, a periodic checkpoint marker is ordered
    in the middle, and every coalescing boundary (outbox, frame reader,
    ``put_many``) must keep per-key order and the marker's cut."""
    keys, total = 8, 2048
    with proc_cluster(mpl=4) as cluster:
        client = cluster.client()
        marker = threading.Thread(target=cluster.periodic_checkpoint)
        pendings = []
        for step in range(total):
            if step == total // 2:
                marker.start()
            key, round_ = step % keys, step // keys
            if round_ % 2 == 0:
                pendings.append(client.invoke_async(
                    "update", key=key, value=b"%d" % round_
                ))
            else:
                pendings.append(client.invoke_async("read", key=key))
        for step, pending in enumerate(pendings):
            response = pending.result(timeout=30)
            assert response.error is None
            round_ = step // keys
            if round_ % 2:  # a read sees exactly the update before it
                assert response.value == b"%d" % (round_ - 1)
        marker.join(30)
        assert not marker.is_alive()
        assert cluster.checkpoints_taken == 1
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
        assert cluster.marker_boundary_violations == 0
        transport = cluster.transport
        assert transport.frames_written > 2 * total
        assert transport.frames_written / transport.writes > 1
        assert transport.pending() == 0


def test_closed_loop_point_reads_run_on_the_receive_loop():
    """An idle worker's command runs on its replica's receive loop: on an
    idle cluster every closed-loop point read is executed there, and no
    worker is handed anything."""
    reads = 40
    with proc_cluster(mpl=2) as cluster:
        client = cluster.client()
        for step in range(reads):
            assert client.invoke("read", key=step % 16).error is None
        cluster.wait_for_quiescence()
        for replica in cluster.replicas:
            stats = replica.stats()
            assert stats["inline_delivered"] == stats["delivered"] == reads
            assert stats["inline"] == stats["batches"] >= 1


def test_a_busy_workers_run_is_queued_behind_what_it_holds():
    """One client pipelines commands to one key — one group — with an
    insert (a command to every group, which each worker takes from its
    queue) every 64th: what arrives while the group's worker holds one is
    queued behind it, and the rest runs on the receive loop.  Per-key
    order holds across both paths."""
    total, every = 1024, 64
    with proc_cluster(mpl=2) as cluster:
        client = cluster.client()
        pendings = []
        for step in range(total):
            if step % every == 0:
                pendings.append(client.invoke_async(
                    "insert", key=1000 + step, value=b"i"
                ))
            elif step % 2:
                pendings.append(client.invoke_async(
                    "update", key=1, value=b"%d" % step
                ))
            else:
                pendings.append(client.invoke_async("read", key=1))
        for step, pending in enumerate(pendings):
            response = pending.result(timeout=30)
            assert response.error is None
            if step % every and not step % 2 and (step - 1) % every:
                assert response.value == b"%d" % (step - 1)
        cluster.wait_for_quiescence()
        inserts = total // every
        for replica in cluster.replicas:
            stats = replica.stats()
            assert stats["delivered"] == total - inserts + 2 * inserts
            # Both workers took every insert from their queues; the
            # group's worker also took commands queued behind them.
            assert stats["delivered"] - stats["inline_delivered"] > 2 * inserts
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_netfs_on_the_process_runtime(tmp_path):
    """The one service / runtime pairing nothing else starts: every NetFS
    answer crosses the wire in the codec's vocabulary (``lstat``'s ``Stat``
    under its own tag), a full and a delta checkpoint carry the fd table
    and an open-but-unlinked inode through the store, and a SIGKILLed
    replica restarted from that store converges."""
    with ProcessPSMRCluster(
        service="netfs", mpl=2, num_replicas=2, barrier_timeout=20.0,
        store_dir=str(tmp_path),
        # Never due on its own: the test decides when to checkpoint.
        checkpoint_policy=CheckpointPolicy(every_messages=10_000_000, full_every=4),
    ) as cluster:
        client = cluster.client()

        def call(name, **args):
            response = client.invoke(name, **args)
            assert response.error is None, (name, args, response.error)
            return response.value

        call("mkdir", path="/d", now=1.0)
        call("release", fd=call("create", path="/d/f", now=2.0))
        cluster.periodic_checkpoint()  # full
        assert call("write", path="/d/f", data=b"hello", now=3.0) == 5
        assert call("read", path="/d/f", size=16, now=4.0) == b"hello"
        stat = call("lstat", path="/d/f")
        assert type(stat) is Stat
        assert stat == Stat(
            is_dir=False, size=5, mode=0o644, nlink=1, atime=4.0, mtime=3.0
        )
        assert call("readdir", path="/d") == [".", "..", "f"]
        assert client.invoke("lstat", path="/nope").error == "ENOENT"
        # Held open across the cut, then unlinked: the checkpoint must
        # carry the descriptor and the inode only it still reaches.
        held = call("create", path="/d/gone", now=5.0)
        call("unlink", path="/d/gone", now=6.0)
        cluster.periodic_checkpoint()  # delta
        assert [e["kind"] for e in cluster.checkpoint_events] == [
            "full", "full", "delta", "delta"  # two replicas each
        ]
        _sequence, state = cluster.checkpoint()  # a whole state, over the wire
        assert held in state["fs"]["fd_table"]

        cluster.crash_replica(1)  # SIGKILL
        assert call("write", path="/d/f", data=b"!", offset=5, now=7.0) == 1
        cluster.restart_replica_from_disk(1)
        # Its own durable chain plus the log suffix, not a peer's state.
        assert cluster.recovery_transfers[-1]["mode"] == "replay"
        call("release", fd=held)
        assert call("lstat", path="/d/f").size == 6
        snapshots = cluster.replica_snapshots()
        assert len(snapshots) == 2 and snapshots[0] == snapshots[1]
        assert cluster.marker_boundary_violations == 0

        async def over_http():
            app = create_app(fs_backend=ClusterBackend(cluster))
            async with AsgiClient(app) as http:
                return await http.get("/fs/stat/d/f")

        response = asyncio.run(over_http())
        assert response.status_code == 200
        assert response.json() == {
            "path": "/d/f",
            "stat": {"is_dir": False, "size": 6, "mode": 0o644, "nlink": 1,
                     "atime": 4.0, "mtime": 7.0},
        }


def _agreement_script(cluster):
    """One seeded single-client script that also drives the shared control
    plane; returns everything the two runtimes must agree on."""
    client = cluster.client()
    rng = random.Random(7)
    responses = []

    def ops(first, count):
        for step in range(first, first + count):
            key = rng.randrange(16)
            roll = rng.random()
            if roll < 0.4:
                response = client.invoke(
                    "update", key=key, value=f"v{step}".encode()
                )
            elif roll < 0.65:
                response = client.invoke("read", key=key)
            elif roll < 0.9:
                # Multi-group: ordered on every group, run behind barriers.
                response = client.invoke("insert", key=1000 + step, value=b"s")
            else:
                # Hits or misses deterministically; both are responses.
                response = client.invoke("delete", key=1000 + rng.randrange(step + 1))
            responses.append((response.value, response.error))

    ops(0, 30)
    cuts = [cluster.periodic_checkpoint()]  # full
    ops(30, 15)
    cuts.append(cluster.periodic_checkpoint())  # delta
    ops(45, 15)
    cuts.append(cluster.periodic_checkpoint())  # delta
    shard_map = cluster.shard_router.shard_map
    cluster.update_shard_map(shard_map.split(8))
    cluster.update_shard_map(cluster.shard_router.shard_map.move(8, 2))
    ops(60, 10)
    cluster.crash_replica(1)
    ops(70, 10)
    cluster.restart_replica_from_disk(1)
    ops(80, 5)
    snapshots = cluster.replica_snapshots()
    assert len(snapshots) == 2 and snapshots[0] == snapshots[1]
    assert cluster.marker_boundary_violations == 0
    agreed = {
        "responses": responses,
        "snapshot": snapshots[0],
        "cuts": cuts,
        # Replicas report concurrently: order the log, keep every field.
        "checkpoint_events": sorted(
            (e["sequence"], e["replica_id"], e["kind"])
            for e in cluster.checkpoint_events
        ),
        "recovery_transfers": [
            (t["replica_id"], t["mode"], t["entries"])
            for t in cluster.recovery_transfers
        ],
        "shard_migrations": [
            {k: v for k, v in record.items() if k != "duration_seconds"}
            for record in cluster.shard_migrations
        ],
    }
    # The one asymmetry that is real: what a crashed replica still holds.
    cluster.crash_replica(1)
    client.invoke("update", key=0, value=b"while-down")
    cluster.recover_replica(1)
    snapshots = cluster.replica_snapshots()
    assert snapshots[0] == snapshots[1]
    return agreed, cluster.recovery_transfers[-1]["mode"]


def test_threaded_and_process_runtimes_agree(tmp_path):
    """Same scripted workload and control-plane operations, same per-op
    responses, final state, checkpoint events, recovery modes and
    migration records on both live runtimes."""
    config = dict(
        mpl=2, num_replicas=2, barrier_timeout=20.0,
        # Never due on its own: the script decides when to checkpoint.
        checkpoint_policy=CheckpointPolicy(
            every_messages=10_000_000, full_every=4
        ),
    )
    with ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=16),
        store_dir=str(tmp_path / "threaded"),
        shard_map=ShardMap.initial(2, key_space=64),
        **config,
    ) as threaded:
        threaded_agreed, threaded_mode = _agreement_script(threaded)
    with ProcessPSMRCluster(
        service="kvstore", service_args={"initial_keys": 16},
        store_dir=str(tmp_path / "proc"),
        shard_map=ShardMap.initial(2, key_space=64),
        **config,
    ) as proc:
        proc_agreed, proc_mode = _agreement_script(proc)
    for key, value in threaded_agreed.items():
        assert proc_agreed[key] == value, key
    # Which path a command took is read off the transport: objects by
    # reference between threads, encoded bytes — every command kind of the
    # script — over the socket.
    assert threaded.multicast.wire_bytes == 0
    assert proc.multicast.wire_bytes > 0
    assert [
        kind for _s, replica_id, kind in threaded_agreed["checkpoint_events"]
        if replica_id == 0
    ] == ["full", "delta", "delta"]
    assert [mode for _r, mode, _e in threaded_agreed["recovery_transfers"]] == ["replay"]
    # A threaded "crash" keeps its in-memory chain and may replay; a
    # SIGKILLed process keeps nothing (see also
    # test_recover_replica_is_always_a_full_transfer).
    assert (threaded_mode, proc_mode) == ("replay", "full")


#: Written once over the replica-handle interface; the two cluster classes
#: differ only in their handle and transport.
SHARED_CONTROL_PLANE = (
    "checkpoint", "periodic_checkpoint", "update_shard_map", "rebalance_shards",
    "truncate_to_watermarks", "_record_transfer",
    "crash_replica", "recover_replica", "recover_replicas",
    "restart_replica_from_disk", "_recover_via_replay",
    "_recover_via_chain_transfer", "_recover_via_full_transfer",
    "_handle_cut_done", "wait_for_quiescence",
    "replica_snapshots", "delivery_batch_stats", "client",
)


@pytest.mark.parametrize("name", SHARED_CONTROL_PLANE)
def test_control_plane_method_is_one_function_object(name):
    assert getattr(ThreadedPSMRCluster, name) is getattr(ProcessPSMRCluster, name)


@pytest.mark.parametrize(
    "keyword",
    ["delivery_batch_size", "checkpoint_poll_interval", "spawn_timeout", "coarse_cg"],
)
def test_an_option_that_became_a_constant_is_a_type_error(keyword):
    """One value was ever in use; nothing accepts and ignores another."""
    with pytest.raises(TypeError):
        ProcessPSMRCluster(**{keyword: 1})
    with pytest.raises(TypeError):
        ThreadedPSMRCluster(KVSTORE_SPEC, KeyValueStoreServer, **{keyword: 1})


def _replica_children():
    """Pids of the live ``repro.runtime.replica_proc`` children of this process."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state, ppid = handle.read().rsplit(b")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue  # exited while we were looking
        if (
            int(ppid) == os.getpid()
            and state != b"Z"
            and b"repro.runtime.replica_proc" in cmdline
        ):
            children.append(int(entry))
    return sorted(children)


def test_every_replica_is_launched_before_the_first_handshake(monkeypatch):
    """Replica processes start up side by side: by the first wait for a
    hello, of ``start()`` and of ``recover_replicas``, every child the
    call needs already runs."""
    take_hello = TcpCoordinatorTransport.take_hello
    seen = []  # children at the first wait of each call
    armed = [True]

    def recording(self, replica_id, timeout):
        if armed[0]:
            armed[0] = False
            seen.append(_replica_children())
        return take_hello(self, replica_id, timeout)

    monkeypatch.setattr(TcpCoordinatorTransport, "take_hello", recording)
    with proc_cluster(replicas=3) as cluster:
        assert seen == [sorted(replica.pid for replica in cluster.replicas)]
        cluster.crash_replicas([1, 2])
        armed[0] = True
        cluster.recover_replicas([1, 2])
        assert len(seen) == 2
        assert seen[1] == sorted(replica.pid for replica in cluster.replicas)
        cluster.client().invoke("update", key=1, value=b"x")
        snapshots = cluster.replica_snapshots()
        assert len(snapshots) == 3 and snapshots[0] == snapshots[2]


@pytest.mark.parametrize("silent", [0, 1])
def test_failed_start_leaves_nothing_behind(monkeypatch, transport_threads,
                                            silent):
    """``__enter__`` raising means ``__exit__`` never runs: a start whose
    handshake with one replica fails must itself reap every child it
    launched (replica 1's is launched, never handshaken, when replica 0
    fails), close the transport's sockets and remove the temp store it
    owns."""
    take_hello = TcpCoordinatorTransport.take_hello

    def one_replica_never_connects(self, replica_id, timeout):
        if replica_id == silent:
            raise RecoveryError(f"replica {silent} did not connect (forced)")
        return take_hello(self, replica_id, timeout)

    monkeypatch.setattr(
        TcpCoordinatorTransport, "take_hello", one_replica_never_connects
    )
    cluster = proc_cluster()
    with pytest.raises(RecoveryError):
        with cluster:
            pytest.fail("start() should have raised")
    assert _replica_children() == []
    assert transport_threads() == ["psmr-io"]
    assert cluster.transport._peers == set()
    assert cluster.transport._listener.fileno() == -1
    assert not os.path.exists(cluster.store_dir)


@pytest.mark.parametrize("recover", ["recover_replica", "restart_replica_from_disk"])
def test_failed_recovery_reaps_the_child_it_spawned(recover):
    with proc_cluster() as cluster:
        client = cluster.client()
        client.invoke("update", key=1, value=b"x")
        cluster.crash_replica(1)

        def no_checkpoint(replica_id=None, timeout=None):
            raise RecoveryError("checkpoint failed (forced)")

        # Fails after the replacement process is up and has said hello.
        cluster.checkpoint = no_checkpoint
        with pytest.raises(RecoveryError):
            getattr(cluster, recover)(1)
        assert _replica_children() == [cluster.replicas[0].pid]
        assert cluster.replicas[1].crashed
        del cluster.checkpoint
        getattr(cluster, recover)(1)  # and the replica is still recoverable
        client.invoke("update", key=1, value=b"y")
        snapshots = cluster.replica_snapshots()
        assert len(snapshots) == 2 and snapshots[0] == snapshots[1]


def test_crash_wakes_pending_management_requests():
    """A request waiting on a wedged replica must fail when the replica is
    crashed, not run out its (here 20 s) timeout."""
    with proc_cluster() as cluster:
        victim = cluster.replicas[1]
        os.kill(victim.pid, signal.SIGSTOP)
        raised = []

        def ask():
            try:
                victim.snapshot()
            except Exception as exc:
                raised.append((exc, time.monotonic()))

        asker = threading.Thread(target=ask)
        asker.start()
        time.sleep(0.2)  # the request is on the wire, nobody answers
        assert asker.is_alive()
        crashed_at = time.monotonic()
        cluster.crash_replica(1)
        asker.join(timeout=5.0)
        assert raised and isinstance(raised[0][0], RecoveryError)
        assert raised[0][1] - crashed_at < 1.0


def test_a_failed_checkpoint_write_in_a_replica_process_is_reported(tmp_path):
    """The segment file replica 0 writes next is taken by a directory, so
    its next checkpoint write fails inside the child process: the ``c``
    report carries the error, the caller gets a CheckpointError at once,
    and the process, its workers and its durable chain live on."""
    with proc_cluster(store_dir=str(tmp_path), barrier_timeout=5.0) as cluster:
        client = cluster.client()
        for key in range(16):
            client.invoke("update", key=key, value=b"base")
        base = cluster.periodic_checkpoint()
        store = os.path.join(str(tmp_path), "replica-0")
        segments = [name for name in os.listdir(store) if name.startswith("seg-")]
        next_id = max(int(name[4:12]) for name in segments) + 1
        os.mkdir(os.path.join(store, f"seg-{next_id:08d}.ckpt"))
        client.invoke("update", key=0, value=b"unwritten")
        started = time.monotonic()
        with pytest.raises(CheckpointError, match="replica 0"):
            cluster.periodic_checkpoint()
        assert time.monotonic() - started < 2.0  # the barrier timeout is 5 s
        victim = cluster.replicas[0]
        assert victim.proc.poll() is None
        assert victim.watermark == base
        client.invoke("update", key=1, value=b"after")
        retried = cluster.periodic_checkpoint()  # the next segment id is free
        assert victim.watermark == retried > base
        cluster.crash_replica(0)
        cluster.restart_replica_from_disk(0)
        assert cluster.recovery_transfers[-1]["mode"] == "replay"
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_proc_nemesis_episode_passes_oracle(tmp_path):
    """A seeded nemesis episode — SIGKILL crashes, socket-level partitions,
    restart-from-disk — passes the full oracle on the process runtime."""
    report = run_live_nemesis_episode(
        seed=20260808, runtime="proc", store_dir=str(tmp_path), steps=4, mean_gap=0.25
    )
    assert_episode_ok(report)
    assert report["runtime"] == "proc"
    assert "runtime='proc'" in report["reproduce"]
    assert "steps=4, mean_gap=0.25" in report["reproduce"]
    replay = Nemesis(20260808, LIVE["proc"]["num_replicas"], steps=4, mean_gap=0.25,
                     kinds=THREADED_KINDS)
    assert report["plan"] == [op.describe() for op in replay.plan]
    assert report["linearizable"] and report["converged"]
    assert report["marker_boundary_violations"] == 0
