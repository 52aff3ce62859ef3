"""Fault-injection and recovery tests for the durable checkpoint store.

The acceptance criterion of the durable subsystem: **a crash at any byte of
a persist cycle leaves a recoverable longest-valid-prefix**.  The sweep
here injects a crash after every single byte offset of a full persist
cycle (base, three deltas, the next base) via a ``CrashingFile``
opener, reopens the store cold each time, and asserts it loads exactly the
last chain whose manifest commit completed — never a torn manifest, never
a half-written segment (the checksums reject those).

On top of the byte sweep: checksum rejection of externally corrupted
segments and manifests, chain-suffix recovery from the first live peer
whose chain still holds the joiner's cut (with a linearizability check
across one such episode), process-restart recovery from disk in the
threaded cluster, and a checkpoint write that fails on a full disk.
"""

import errno
import os
import time

import pytest

from repro.common.checkpoint import CheckpointPolicy
from repro.common.checkpoint_store import CheckpointStore
from repro.common.errors import CheckpointError, RecoveryError
from repro.harness.experiments.durable import run_durable_recovery
from repro.runtime import ThreadedPSMRCluster, check_linearizable
from repro.runtime.linearizability import HistoryRecorder
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


# ----------------------------------------------------------------------
# Fault injection: crash after N bytes, for every N in a persist cycle
# ----------------------------------------------------------------------
class InjectedCrash(Exception):
    """The 'process died here' signal raised by :class:`CrashingFile`."""


class _WriteBudget:
    """Bytes the simulated process may still write before it dies.

    Shared across every file the store opens, so one budget models one
    crash point inside a multi-file persist cycle.  ``None`` disables
    crashing and just counts (the measurement pass).
    """

    def __init__(self, limit=None):
        self.limit = limit
        self.written = 0

    def consume(self, handle, data):
        if self.limit is None:
            self.written += len(data)
            handle.write(data)
            return
        remaining = self.limit - self.written
        if remaining <= 0:
            raise InjectedCrash("crashed before this write")
        if len(data) > remaining:
            # A torn write: part of the data reaches the disk, then death.
            handle.write(data[:remaining])
            handle.flush()
            self.written = self.limit
            raise InjectedCrash(f"crashed {remaining} bytes into a write")
        self.written += len(data)
        handle.write(data)


class CrashingFile:
    """A binary file whose writes die once the shared budget runs out."""

    def __init__(self, handle, budget):
        self._handle = handle
        self._budget = budget

    def write(self, data):
        self._budget.consume(self._handle, data)
        return len(data)

    def flush(self):
        self._handle.flush()

    def fileno(self):
        return self._handle.fileno()

    def close(self):
        self._handle.close()


def crashing_opener(budget):
    def opener(path, mode="wb"):
        return CrashingFile(open(path, mode), budget)
    return opener


def persist_cycle_steps():
    """The successive chain states of one scripted persist cycle.

    Built once from a deterministic key-value history: a full base, three
    deltas (with delete/recreate overlap), then the next full base, whose
    manifest commit drops the old segments — every kind of write the store
    performs.
    """
    server = KeyValueStoreServer(initial_keys=6)
    chain = [{"kind": "full", "sequence": 0, "payload": server.checkpoint()}]
    server.reset_delta_tracking()
    steps = [list(chain)]
    for index in range(1, 4):
        server.execute("update", {"key": index % 6, "value": b"u%d" % index})
        server.execute("insert", {"key": 10 + index, "value": b"n"})
        server.execute("delete", {"key": 10 + index - 1 if index > 1 else 0})
        chain.append(
            {
                "kind": "delta",
                "sequence": index,
                "payload": server.delta_checkpoint(),
            }
        )
        steps.append(list(chain))
    server.execute("update", {"key": 0, "value": b"rebased"})
    steps.append([{"kind": "full", "sequence": 4, "payload": server.checkpoint()}])
    return steps


def run_cycle(directory, steps, budget):
    """Replay the persist cycle against one store.

    Returns ``(completed_syncs, crashed)`` — the count survives the
    injected crash, unlike an exception propagated out of a plain loop.
    """
    store = CheckpointStore(directory, opener=crashing_opener(budget))
    completed = 0
    try:
        for step in steps:
            store.sync_chain(step)
            completed += 1
    except InjectedCrash:
        return completed, True
    return completed, False


def chain_identity(chain):
    return [(entry["kind"], entry["sequence"]) for entry in chain]


def test_crash_at_every_byte_recovers_the_last_committed_chain(tmp_path):
    """Acceptance sweep: for every injected crash byte offset during the
    persist cycle, reopening the store recovers exactly the chain of the
    last completed sync — the longest valid prefix, bit-for-bit equal."""
    steps = persist_cycle_steps()
    # Measurement pass: how many bytes does the whole cycle write?
    probe = _WriteBudget(limit=None)
    completed, crashed = run_cycle(str(tmp_path / "probe"), steps, probe)
    assert completed == len(steps) and not crashed
    total_bytes = probe.written
    assert total_bytes > 0
    for crash_at in range(total_bytes):
        directory = str(tmp_path / f"crash-{crash_at}")
        budget = _WriteBudget(limit=crash_at)
        completed, crashed = run_cycle(directory, steps, budget)
        assert crashed, f"budget {crash_at} < {total_bytes} but no crash"
        # The dead process's store is gone; a fresh one reads the disk.
        reopened = CheckpointStore(directory)
        loaded = reopened.load_chain()
        if completed == 0:
            assert loaded == []
        else:
            expected = steps[completed - 1]
            assert chain_identity(loaded) == chain_identity(expected)
            assert [entry["payload"] for entry in loaded] == [
                entry["payload"] for entry in expected
            ]


def test_crash_free_cycle_persists_the_rebased_chain(tmp_path):
    steps = persist_cycle_steps()
    store = CheckpointStore(str(tmp_path))
    for step in steps:
        store.sync_chain(step)
    loaded = CheckpointStore(str(tmp_path)).load_chain()
    assert chain_identity(loaded) == [("full", 4)]
    # The new base's manifest commit garbage-collects the old base and
    # delta segments: one file remains.
    assert store.segment_count() == 1
    segments = [
        name for name in os.listdir(str(tmp_path)) if name.startswith("seg-")
    ]
    assert len(segments) == 1


# ----------------------------------------------------------------------
# Checksums reject external corruption (torn segments / torn manifest)
# ----------------------------------------------------------------------
def _persisted_store(tmp_path):
    steps = persist_cycle_steps()
    store = CheckpointStore(str(tmp_path))
    store.sync_chain(steps[-2])  # [full, d1, d2, d3], before the rebase
    return store


def test_torn_segment_cuts_the_chain_at_the_checksum(tmp_path):
    store = _persisted_store(tmp_path)
    records = store._records
    assert chain_identity(store.load_chain()) == [
        ("full", 0), ("delta", 1), ("delta", 2), ("delta", 3)
    ]
    # Truncate the third entry's segment: the chain ends before it.
    victim = os.path.join(str(tmp_path), records[2]["segment"])
    with open(victim, "r+b") as handle:
        handle.truncate(os.path.getsize(victim) - 1)
    loaded = CheckpointStore(str(tmp_path)).load_chain()
    assert chain_identity(loaded) == [("full", 0), ("delta", 1)]


def test_corrupt_base_segment_yields_no_chain(tmp_path):
    store = _persisted_store(tmp_path)
    victim = os.path.join(str(tmp_path), store._records[0]["segment"])
    with open(victim, "r+b") as handle:
        handle.seek(30)
        byte = handle.read(1)
        handle.seek(30)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert CheckpointStore(str(tmp_path)).load_chain() == []


def test_torn_manifest_line_drops_the_tail(tmp_path):
    _persisted_store(tmp_path)
    manifest = os.path.join(str(tmp_path), "MANIFEST")
    with open(manifest, "r+b") as handle:
        handle.truncate(os.path.getsize(manifest) - 5)  # tear the last line
    loaded = CheckpointStore(str(tmp_path)).load_chain()
    assert chain_identity(loaded) == [("full", 0), ("delta", 1), ("delta", 2)]


def test_leftover_manifest_tmp_is_ignored(tmp_path):
    _persisted_store(tmp_path)
    with open(os.path.join(str(tmp_path), "MANIFEST.tmp"), "wb") as handle:
        handle.write(b"garbage from a crashed rename\n")
    loaded = CheckpointStore(str(tmp_path)).load_chain()
    assert chain_identity(loaded) == [
        ("full", 0), ("delta", 1), ("delta", 2), ("delta", 3)
    ]


def test_a_chain_that_is_not_a_base_and_its_deltas_is_a_typed_error(tmp_path):
    store = CheckpointStore(str(tmp_path))
    full = {"kind": "full", "sequence": 0, "payload": {}}
    for chain in (
        [{"kind": "delta", "sequence": 1, "payload": {}}],
        [{"kind": "bogus", "sequence": 1, "payload": {}}],
        [full, {"kind": "full", "sequence": 1, "payload": {}}],
    ):
        with pytest.raises(CheckpointError):
            store.sync_chain(chain)
    assert store.segment_count() == 0 and os.listdir(str(tmp_path)) == []


# ----------------------------------------------------------------------
# Threaded cluster: donor selection and process restart from disk
# ----------------------------------------------------------------------
def kv_cluster(mpl=2, replicas=2, initial_keys=16, barrier_timeout=20.0,
               **kwargs):
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=initial_keys),
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=barrier_timeout,
        **kwargs,
    )


def manual_policy(**kwargs):
    """Triggers never fire on their own: tests drive markers explicitly."""
    return CheckpointPolicy(every_messages=10_000_000, **kwargs)


def _read_value(client, key):
    response = client.invoke("read", key=key)
    return response.value if response.error is None else None


def _cuts(chain):
    return [entry["sequence"] for entry in chain]


def test_next_live_peer_donates_chain_suffix_when_lowest_id_donor_is_down():
    """The joiner's first-choice donor (the lowest replica id) is itself
    crashed; the next live peer donates the chain suffix instead.  The
    whole episode is checked linearizable."""
    recorder = HistoryRecorder()
    policy = manual_policy(full_every=8, max_replay_lag=5)
    with kv_cluster(replicas=3, initial_keys=16, checkpoint_policy=policy) as cluster:
        client = cluster.client()

        def update(key, value):
            recorder.timed_call(
                0, "update", {"key": key, "value": value},
                lambda k=key, v=value: client.invoke("update", key=k, value=v).error,
            )

        def read(key):
            recorder.timed_call(
                0, "read", {"key": key}, lambda k=key: _read_value(client, k)
            )

        for key in range(16):
            update(key, "before")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # full base on all three replicas
        for key in range(4):
            update(key, "d1")
        cluster.wait_for_quiescence()
        joiner_watermark = cluster.periodic_checkpoint()  # delta cut w
        cluster.crash_replica(2)
        # Push the joiner past the replay horizon while the survivors keep
        # checkpointing: their chains grow the deltas the joiner misses.
        for burst in range(2):
            for key in range(8):
                update(key, f"b{burst}")
            read(burst)
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
        assert cluster.replicas[2].needs_full_transfer
        assert cluster.multicast.min_retained() > joiner_watermark + 1
        # The original (lowest-id) donor dies too.
        cluster.crash_replica(0)
        replica = cluster.recover_replica(2)
        transfer = cluster.recovery_transfers[-1]
        assert transfer["mode"] == "chain-suffix"
        assert transfer["entries"] == 2  # exactly the two missed deltas
        assert replica.checkpoint_watermark > joiner_watermark
        # Replica 1 donated: its chain held the joiner's cut, and the
        # joiner now holds the same cuts.
        assert joiner_watermark in _cuts(cluster.replicas[1].checkpoint_chain)
        assert _cuts(replica.checkpoint_chain) == _cuts(
            cluster.replicas[1].checkpoint_chain
        )
        cluster.recover_replica(0)
        for key in range(4):
            update(key, "after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1] == snapshots[2]
    initial = {key: b"\x00" * 8 for key in range(16)}
    assert check_linearizable(recorder.operations, initial_state=initial)


def test_a_peer_whose_chain_lost_the_cut_is_skipped():
    """The lowest-id live peer took a source checkpoint since the joiner
    crashed, so its chain starts at a fresh full base and no longer holds
    the joiner's cut: it is asked, declines, and the next peer donates."""
    policy = manual_policy(full_every=8, max_replay_lag=5)
    with kv_cluster(replicas=3, initial_keys=16, checkpoint_policy=policy) as cluster:
        client = cluster.client()
        for key in range(16):
            client.invoke("update", key=key, value="before")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # full base on all three replicas
        for key in range(4):
            client.invoke("update", key=key, value="d1")
        cluster.wait_for_quiescence()
        joiner_watermark = cluster.periodic_checkpoint()  # delta cut w
        cluster.crash_replica(2)
        for burst in range(2):
            for key in range(8):
                client.invoke("update", key=key, value=f"b{burst}")
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
        assert cluster.replicas[2].needs_full_transfer
        source_cut, _state = cluster.checkpoint(replica_id=0)
        assert _cuts(cluster.replicas[0].checkpoint_chain) == [source_cut]
        assert joiner_watermark in _cuts(cluster.replicas[1].checkpoint_chain)
        replica = cluster.recover_replica(2)
        transfer = cluster.recovery_transfers[-1]
        assert transfer["mode"] == "chain-suffix"
        assert transfer["entries"] == 2  # replica 1's two deltas after w
        assert _cuts(replica.checkpoint_chain) == _cuts(
            cluster.replicas[1].checkpoint_chain
        )
        for key in range(4):
            client.invoke("update", key=key, value="after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1] == snapshots[2]


# ----------------------------------------------------------------------
# A checkpoint write that fails
# ----------------------------------------------------------------------
def _disk_full(path, mode):
    raise OSError(errno.ENOSPC, "No space left on device", path)


def _eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_a_failed_checkpoint_write_is_reported_and_the_replica_lives(
    tmp_path, monkeypatch
):
    """Replica 0's disk fills up: its periodic checkpoint fails at once
    with a CheckpointError (not a barrier timeout), its watermark and chain
    stay where the last durable write left them, its workers live on, and
    its next checkpoint is a full base — the failed delta already consumed
    the service's dirty set."""
    policy = manual_policy(full_every=4)
    with kv_cluster(
        checkpoint_policy=policy, store_dir=str(tmp_path), barrier_timeout=3.0
    ) as cluster:
        client = cluster.client()
        for key in range(16):
            client.invoke("update", key=key, value="base")
        cluster.wait_for_quiescence()
        base = cluster.periodic_checkpoint()
        for key in range(4):
            client.invoke("update", key=key, value="lost-delta")
        monkeypatch.setattr(cluster.stores[0], "_opener", _disk_full)
        started = time.monotonic()
        with pytest.raises(CheckpointError, match="replica 0"):
            cluster.periodic_checkpoint()
        assert time.monotonic() - started < 1.0  # the barrier timeout is 3 s
        failed = cluster.replicas[0]
        assert failed.checkpoint_watermark == base
        assert _cuts(failed.checkpoint_chain) == [base]
        assert cluster.stores[0].manifest() == [("full", base)]
        # Replica 1 checkpointed at the same cut (its report may land
        # after replica 0's error was raised).
        _eventually(lambda: cluster.replicas[1].checkpoint_watermark > base)
        assert not failed.crashed
        assert all(thread.is_alive() for thread in failed.threads)
        for key in range(4, 8):
            client.invoke("update", key=key, value="after-failure")
        cluster.wait_for_quiescence()
        monkeypatch.undo()
        retried = cluster.periodic_checkpoint()
        assert failed.checkpoint_watermark == retried
        assert [entry["kind"] for entry in failed.checkpoint_chain] == ["full"]
        assert [kind for kind, _ in cluster.stores[1].manifest()] == [
            "full", "delta", "delta"
        ]
        # The durable chain is whole: a restart from disk replays on it.
        client.invoke("update", key=0, value="after-retry")
        cluster.crash_replica(0)
        cluster.restart_replica_from_disk(0)
        assert cluster.recovery_transfers[-1]["mode"] == "replay"
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_the_scheduler_retries_after_a_failed_checkpoint(tmp_path, monkeypatch):
    """The background scheduler survives a CheckpointError and keeps the
    policy due, so the first round after the disk recovers checkpoints."""
    policy = CheckpointPolicy(every_messages=4)
    with kv_cluster(
        checkpoint_policy=policy, store_dir=str(tmp_path), barrier_timeout=3.0
    ) as cluster:
        monkeypatch.setattr(cluster.stores[0], "_opener", _disk_full)
        client = cluster.client()
        for key in range(8):
            client.invoke("update", key=key, value="disk-full")
        _eventually(lambda: cluster.replicas[1].checkpoint_watermark >= 0)
        assert cluster.replicas[0].checkpoint_watermark == -1
        monkeypatch.undo()
        _eventually(lambda: cluster.replicas[0].checkpoint_watermark >= 0)
        assert cluster.stores[0].manifest()
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_restart_from_disk_replays_on_top_of_the_durable_chain(tmp_path):
    """A crashed replica rejoins as a restarted process: its in-memory
    chain is wiped, the durable chain is reloaded from disk, and log
    replay finishes the job — linearizably, with converged replicas."""
    recorder = HistoryRecorder()
    policy = manual_policy(full_every=4)
    with kv_cluster(
        checkpoint_policy=policy, store_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client()

        def update(key, value):
            recorder.timed_call(
                0, "update", {"key": key, "value": value},
                lambda k=key, v=value: client.invoke("update", key=k, value=v).error,
            )

        for key in range(16):
            update(key, "base")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # durable full
        for key in range(4):
            update(key, "delta")
        cluster.wait_for_quiescence()
        watermark = cluster.periodic_checkpoint()  # durable delta
        # A cold reopen of the replica's directory sees what the store does.
        on_disk = CheckpointStore(
            os.path.join(str(tmp_path), "replica-1")
        ).manifest()
        assert on_disk == cluster.stores[1].manifest()
        assert [kind for kind, _sequence in on_disk] == ["full", "delta"]
        assert on_disk[-1][1] == watermark
        cluster.crash_replica(1)
        # Simulate full process death: the in-memory chain is lost.
        cluster.replicas[1].checkpoint_chain = []
        cluster.replicas[1].checkpoint_watermark = -1
        for key in range(8):
            update(key, "while-down")
        replica = cluster.restart_replica_from_disk(1)
        assert replica.checkpoint_watermark == watermark
        assert cluster.recovery_transfers[-1]["mode"] == "replay"
        update(0, "after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]
    initial = {key: b"\x00" * 8 for key in range(16)}
    assert check_linearizable(recorder.operations, initial_state=initial)


def test_restart_from_disk_falls_back_to_full_when_disk_is_empty(tmp_path):
    policy = manual_policy(full_every=4)
    with kv_cluster(
        checkpoint_policy=policy, store_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client()
        for key in range(8):
            client.invoke("update", key=key, value=b"base")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()
        cluster.crash_replica(1)
        cluster.stores[1].clear()  # the disk burned down with the process
        for key in range(8):
            client.invoke("update", key=key, value=b"while-down")
        cluster.restart_replica_from_disk(1)
        assert cluster.recovery_transfers[-1]["mode"] == "full"
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


def test_restart_from_disk_requires_a_store():
    with kv_cluster(checkpoint_policy=manual_policy()) as cluster:
        client = cluster.client()
        client.invoke("update", key=0, value=b"x")
        cluster.crash_replica(1)
        with pytest.raises(RecoveryError):
            cluster.restart_replica_from_disk(1)
        cluster.recover_replica(1)


def test_full_every_bounds_the_durable_chain(tmp_path):
    """The durable chain grows by one segment per delta and the cadence
    full drops them all: it never holds more than ``full_every`` segments."""
    policy = manual_policy(full_every=3)
    with kv_cluster(
        checkpoint_policy=policy, store_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client()
        segments = []
        for round_index in range(7):
            for key in range(8):
                client.invoke(
                    "update", key=key, value=f"r{round_index}".encode()
                )
            cluster.wait_for_quiescence()
            cluster.periodic_checkpoint()
            segments.append(cluster.stores[0].segment_count())
        events = [
            event["kind"]
            for event in cluster.checkpoint_events
            if event["replica_id"] == 0
        ]
        assert events == ["full", "delta", "delta"] * 2 + ["full"]
        assert segments == [1, 2, 3, 1, 2, 3, 1]
        # A crashed replica still recovers on top of its durable chain.
        cluster.crash_replica(1)
        for key in range(4):
            client.invoke("update", key=key, value=b"down")
        cluster.recover_replica(1)
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        assert snapshots[0] == snapshots[1]


# ----------------------------------------------------------------------
# Experiment smoke (the live-cli-smoke job runs the same driver)
# ----------------------------------------------------------------------
def test_durable_recovery_experiment_smoke(tmp_path):
    result = run_durable_recovery(
        warmup=0.005, duration=0.02, seed=1, chain_lengths=(1, 8),
        store_dir=str(tmp_path),
    )
    assert result["figure"] == "durable-recovery"
    rows = {row["deltas"]: row for row in result["rows"]}
    assert rows[1]["segments"] == 2
    assert rows[8]["segments"] == 9
    assert rows[1]["disk_kb"] < rows[8]["disk_kb"]
    assert result["episode"]["converged"]
    assert result["episode"]["transfer"] == "replay"
    assert "Durable recovery" in result["text"]
