"""Shard-rebalance experiment: dynamic sharding vs the static partition.

The paper's C-G function partitions the keyspace evenly across groups,
which maximises parallelism only while the load is even.  Under a skewed
(Zipfian) key popularity the hot prefix of the keyspace lands in one
group and that group's worker becomes the bottleneck — the other workers
idle.  This experiment measures exactly that, then lets the dynamic
shard map fix it live:

* **static-skew** — even initial map, Zipfian keys in rank order (key 0
  hottest), no rebalance: group 1 serves ~84% of commands;
* **rebalanced-skew** — same load, but after a warmup the cluster calls
  :meth:`rebalance_shards`, which switches routing to a
  load-proportional map at one totally-ordered barrier mid-load (no
  state moves: every replica holds all of it) and then measures again;
* **uniform** — uniform keys on the static map: the no-skew reference
  ceiling.

Every replica executes a fixed per-command service time that releases
the GIL, so group parallelism is real wall-clock parallelism and the
imbalance shows up directly as throughput.
"""

import time
from collections import deque

from repro.common.rng import SeededRNG
from repro.harness.tables import format_table
from repro.multicast.sharding import ShardMap, group_loads
from repro.runtime import ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer
from repro.workload.distributions import UniformKeys, ZipfianKeys

MPL = 4
KEY_SPACE = 4096
PIPELINE = 64
SERVICE_DELAY = 0.0002
ZIPF_THETA = 1.0

#: What the experiment is expected to show (used in the output and tests).
EXPECTATIONS = {
    "skew": "Zipfian load on the static even map bottlenecks one group; "
            "throughput collapses toward a single worker's rate",
    "rebalance": "one live migration flattens the per-group load and "
                 "recovers most of the uniform ceiling (>= 1.3x static)",
    "safety": "the switch is one barrier (a moved key's old group finishes "
              "before its new group starts) and no stale routing reaches "
              "the sequencer unchecked",
}


class _SlowKVServer(KeyValueStoreServer):
    """KV store with a fixed per-command service time.

    ``time.sleep`` releases the GIL, so with a single replica the
    cluster's worker threads execute independent groups in true
    parallel — group imbalance then costs wall-clock throughput, which
    is the quantity under test.
    """

    def __init__(self, delay=SERVICE_DELAY, **kwargs):
        super().__init__(**kwargs)
        self._delay = delay

    def execute(self, name, args):
        time.sleep(self._delay)
        return super().execute(name, args)


def _pump(client, distribution, count, timeout=60.0):
    """Pipeline ``count`` keyed updates; return achieved ops/second."""
    pending = deque()
    value = b"\x00" * 8
    started = time.perf_counter()
    for _ in range(count):
        pending.append(
            client.invoke_async(
                "update", key=distribution.next_key(), value=value
            )
        )
        if len(pending) >= PIPELINE:
            pending.popleft().result(timeout)
    while pending:
        pending.popleft().result(timeout)
    return count / (time.perf_counter() - started)


def run_shard_arm(name, rebalance, distribution_factory, warm_ops,
                  measure_ops, seed, delay=SERVICE_DELAY):
    """One arm: warm the load tracker, optionally rebalance, then measure.

    Returns throughput, the per-group load split over the measured
    window, and the migration record (``None`` without a rebalance).
    """
    cluster = ThreadedPSMRCluster(
        KVSTORE_SPEC,
        lambda: _SlowKVServer(delay=delay, initial_keys=KEY_SPACE),
        mpl=MPL,
        num_replicas=1,
        barrier_timeout=60.0,
        seed=seed,
        shard_map=ShardMap.initial(MPL, key_space=KEY_SPACE),
    )
    with cluster:
        client = cluster.client()
        distribution = distribution_factory()
        _pump(client, distribution, warm_ops)
        migration = None
        if rebalance:
            migration = cluster.rebalance_shards(min_imbalance=1.05)
        else:
            # Same tracker window as the rebalanced arm (reset after the
            # migration): the reported split covers only measured ops.
            cluster.shard_router.tracker.reset()
        ops_per_s = _pump(client, distribution, measure_ops)
        loads = group_loads(
            cluster.shard_router.shard_map,
            cluster.shard_router.tracker.snapshot(),
        )
        stale = cluster.multicast.stale_routings_rejected
        version = cluster.shard_router.shard_map.version
    total = sum(loads.values()) or 1
    return {
        "arm": name,
        "ops_per_s": ops_per_s,
        "group_share": {
            group: loads.get(group, 0) / total for group in range(1, MPL + 1)
        },
        "hot_share": max(loads.values()) / total if loads else 0.0,
        "map_version": version,
        "stale_rejections": stale,
        "migration": migration,
    }


def _zipf_factory(seed):
    # scramble=False keeps rank order: the hot set clusters at low keys,
    # i.e. inside group 1's initial range — the worst case for the
    # static map and the one a production store actually hits when one
    # tenant/prefix goes hot.
    return lambda: ZipfianKeys(
        KEY_SPACE, theta=ZIPF_THETA,
        rng=SeededRNG(seed).child("shard", "zipf"), scramble=False,
    )


def _uniform_factory(seed):
    return lambda: UniformKeys(
        KEY_SPACE, rng=SeededRNG(seed).child("shard", "uniform")
    )


def run_shard_rebalance(warmup=0.015, duration=0.04, seed=20260808):
    """The shard-rebalance experiment (three arms, one live migration).

    ``warmup``/``duration`` scale the per-arm op counts so the CLI's
    timing knobs shrink the experiment for smoke runs.
    """
    warm_ops = max(300, int(warmup * 40_000))
    measure_ops = max(400, int(duration * 40_000))
    static = run_shard_arm(
        "static-skew", False, _zipf_factory(seed), warm_ops, measure_ops, seed
    )
    rebalanced = run_shard_arm(
        "rebalanced-skew", True, _zipf_factory(seed), warm_ops, measure_ops,
        seed,
    )
    uniform = run_shard_arm(
        "uniform", False, _uniform_factory(seed), warm_ops, measure_ops, seed
    )
    arms = [static, rebalanced, uniform]
    speedup = rebalanced["ops_per_s"] / max(static["ops_per_s"], 1e-9)
    migration = rebalanced["migration"]
    rows = [
        {
            "arm": arm["arm"],
            "ops_per_s": round(arm["ops_per_s"], 1),
            "vs_static": round(
                arm["ops_per_s"] / max(static["ops_per_s"], 1e-9), 2
            ),
            "hot_group_share": round(arm["hot_share"], 3),
            "map_version": arm["map_version"],
        }
        for arm in arms
    ]
    summary = {
        "seed": seed,
        "mpl": MPL,
        "key_space": KEY_SPACE,
        "ops_per_arm": measure_ops,
        "rebalanced_speedup": round(speedup, 2),
        "migration_moved_ranges": (
            len(migration["moved_ranges"]) if migration else 0
        ),
        "migration_ms": (
            round(migration["duration_seconds"] * 1000.0, 2)
            if migration else None
        ),
        "reproduce": f"python -m repro.cli shard-rebalance --seed {seed}",
    }
    text = "\n".join(
        [
            format_table(
                rows,
                columns=[
                    "arm", "ops_per_s", "vs_static", "hot_group_share",
                    "map_version",
                ],
                title=(
                    "Shard rebalance - skewed load, static vs live-migrated "
                    f"map (mpl={MPL}, zipf theta={ZIPF_THETA})"
                ),
            ),
            "",
            format_table(
                [
                    {"metric": key, "value": value}
                    for key, value in summary.items()
                ],
                columns=["metric", "value"],
                title="Shard rebalance - summary",
            ),
        ]
    )
    return {
        "figure": "shard-rebalance",
        "rows": rows,
        "arms": arms,
        "summary": summary,
        "expectations": EXPECTATIONS,
        "text": text,
    }
