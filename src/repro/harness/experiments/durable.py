"""Durable-recovery experiment: restart-from-disk latency vs. chain length.

Two measurements, both against the durable checkpoint store
(:mod:`repro.common.checkpoint_store`):

* a **store sweep** builds checkpoint chains of increasing delta-chain
  length over a skewed-write key-value state, persists each one, and
  measures the cold restart path — reopen the store from disk, verify
  every checksum, restore base + deltas.  A chain pays one
  ``apply_delta`` per segment at restart, on top of restoring its base,
  which is what ``full_every`` bounds;
* a **cluster episode** runs a threaded P-SMR cluster with a ``store_dir``,
  builds per-replica durable chains at periodic markers, crashes a
  replica, and brings it back with
  :meth:`~repro.runtime.cluster.ThreadedPSMRCluster.restart_replica_from_disk`
  — the restarted *process* reloads its chain from stable storage and
  rejoins by log replay, with replica states verified equal afterwards.
"""

import os
import random
import shutil
import tempfile
import time

from repro.common.checkpoint import CheckpointPolicy, restore_chain
from repro.common.checkpoint_store import CheckpointStore
from repro.harness.runner import DEFAULT_WARMUP
from repro.harness.tables import format_table
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

#: What the experiment is expected to show (used in the output and tests).
EXPECTATIONS = {
    "latency": "restart-from-disk latency grows with delta-chain length, "
               "one apply_delta per segment on top of the base restore",
    "disk": "each delta is one more segment on disk",
    "episode": "a replica restarted from its on-disk chain rejoins the "
               "cluster and converges with the survivor",
}


def _build_chain(chain_length, initial_keys, dirty_per_delta, seed):
    """One full base plus ``chain_length`` skewed-write deltas."""
    rng = random.Random(seed)
    server = KeyValueStoreServer(initial_keys=initial_keys)
    chain = [{"kind": "full", "sequence": 0, "payload": server.checkpoint()}]
    server.reset_delta_tracking()
    hot = max(1, initial_keys // 8)
    for index in range(1, chain_length + 1):
        for _ in range(dirty_per_delta):
            key = rng.randrange(hot)
            server.execute("update", {"key": key, "value": rng.randbytes(8)})
        # A little structural churn, so deltas carry deletions too.
        fresh = initial_keys + index
        server.execute("insert", {"key": fresh, "value": b"tmp"})
        if index % 2 == 0:
            server.execute("delete", {"key": initial_keys + index - 1})
        chain.append(
            {
                "kind": "delta",
                "sequence": index,
                "payload": server.delta_checkpoint(),
            }
        )
    return server, chain


def _restart_from_disk(directory, repeats=3):
    """Cold-restart latency: reopen the store, load and restore the chain."""
    best = None
    restored = None
    for _ in range(repeats):
        start = time.perf_counter()
        chain = CheckpointStore(directory).load_chain()
        restored = restore_chain(KeyValueStoreServer(), chain)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, restored


def _cluster_episode(store_dir, seed):
    """Crash a replica and restart it from its durable chain."""
    from repro.runtime.cluster import ThreadedPSMRCluster

    policy = CheckpointPolicy(every_messages=10_000_000, full_every=8)
    with ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=32),
        mpl=2,
        num_replicas=2,
        seed=seed,
        checkpoint_policy=policy,
        store_dir=store_dir,
    ) as cluster:
        client = cluster.client()
        for key in range(32):
            client.invoke("update", key=key, value=b"base")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # durable full base on both replicas
        for key in range(8):
            client.invoke("update", key=key, value=b"delta")
        cluster.wait_for_quiescence()
        cluster.periodic_checkpoint()  # durable delta
        cluster.crash_replica(1)
        for key in range(16):
            client.invoke("update", key=key, value=b"while-down")
        disk_entries = cluster.stores[1].segment_count()
        started = time.perf_counter()
        cluster.restart_replica_from_disk(1)
        rejoin_seconds = time.perf_counter() - started
        client.invoke("update", key=0, value=b"after")
        snapshots = cluster.replica_snapshots()
        return {
            "disk_entries": disk_entries,
            "rejoin_ms": round(rejoin_seconds * 1000.0, 3),
            "transfer": cluster.recovery_transfers[-1]["mode"],
            "converged": snapshots[0] == snapshots[1],
        }


def run_durable_recovery(
    warmup=DEFAULT_WARMUP,
    duration=0.04,
    seed=1,
    chain_lengths=(1, 4, 16, 64),
    initial_keys=None,
    dirty_per_delta=48,
    store_dir=None,
):
    """Sweep delta-chain length over the durable store; return rows + episode.

    ``duration`` scales the state size (the sweep is wall-clock bound by
    restore work, not simulated time), keeping the CI smoke fast while the
    default run restores a few thousand keys.  ``store_dir`` overrides the
    scratch directory (a temp dir, removed afterwards, by default).
    """
    if initial_keys is None:
        initial_keys = max(1024, min(16384, int(duration * 200_000)))
    scratch = store_dir or tempfile.mkdtemp(prefix="psmr-durable-")
    rows = []
    try:
        for chain_length in chain_lengths:
            live, chain = _build_chain(
                chain_length, initial_keys, dirty_per_delta, seed
            )
            directory = os.path.join(scratch, f"chain-{chain_length}")
            store = CheckpointStore(directory)
            store.sync_chain(chain)
            seconds, restored = _restart_from_disk(directory)
            assert restored.snapshot() == live.snapshot()
            rows.append(
                {
                    "deltas": chain_length,
                    "segments": store.segment_count(),
                    "disk_kb": round(store.disk_bytes() / 1024.0, 1),
                    "restore_ms": round(seconds * 1000.0, 3),
                }
            )
        episode = _cluster_episode(os.path.join(scratch, "cluster"), seed)
    finally:
        if store_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)
    summary = {
        "longest_chain": max(chain_lengths),
        "restore_ms_at_shortest": rows[0]["restore_ms"],
        "restore_ms_at_longest": rows[-1]["restore_ms"],
        "episode_transfer": episode["transfer"],
        "episode_rejoin_ms": episode["rejoin_ms"],
        "episode_converged": episode["converged"],
    }
    text = "\n".join(
        [
            format_table(
                rows,
                columns=["deltas", "segments", "disk_kb", "restore_ms"],
                title=(
                    f"Durable recovery - restart-from-disk vs. chain length "
                    f"({initial_keys} keys, {dirty_per_delta} dirty keys per "
                    f"delta)"
                ),
            ),
            "",
            format_table(
                [{"metric": key, "value": value} for key, value in summary.items()],
                columns=["metric", "value"],
                title="Durable recovery - summary",
            ),
        ]
    )
    return {
        "figure": "durable-recovery",
        "rows": rows,
        "episode": episode,
        "summary": summary,
        "expectations": EXPECTATIONS,
        "text": text,
    }
