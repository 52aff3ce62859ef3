"""The live-episode skeleton against a fake cluster.

`harness/nemesis.py` writes the schedule loop, the final heal / recover /
quiesce, the oracle and the failure fold once; the real episodes that go
through it take seconds each.  Here the cluster is an in-memory KV behind
one lock and every gap is zero, so each clause of the skeleton is driven
on its own in milliseconds — by the real runners where the runner is what
is being checked.
"""

import threading
from functools import partial
from types import SimpleNamespace

import pytest

from repro.common.checkpoint import CheckpointPolicy
from repro.common.config import CostModelConfig, MulticastConfig
from repro.common.errors import RecoveryError
from repro.common.faults import FaultPlane, NemesisOp
from repro.harness import build_kv_system, nemesis
from repro.harness.experiments import run_nemesis
from repro.replication import PSMRSystem
from repro.replication.base import SimStream

SHAPE = {"num_replicas": 3, "probe_ops": 4, "load_keys": 8,
         "invoke_timeout": 0.2, "quiesce_timeout": 0.2}


class FakeCluster:
    """The cluster surface the skeleton touches, linearizable by one lock."""

    def __init__(self, num_replicas=3):
        self.replicas = [
            SimpleNamespace(replica_id=index, crashed=False) for index in range(num_replicas)
        ]
        self.state = {}
        self.lock = threading.Lock()
        self.calls = []
        self.refuse = set()          # control methods that raise RecoveryError
        self.before_invoke = None    # hook(name, key), may raise
        self.stale_reads = False
        self.diverged = False
        self.pending = 0
        self.marker_boundary_violations = 0
        self.multicast = SimpleNamespace(
            pending_count=lambda: self.pending, stale_routings_rejected=0
        )
        self.shard_router = SimpleNamespace(shard_map=SimpleNamespace(version=0))
        self._clients = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def _control(self, method, replica_id=None):
        self.calls.append((method, replica_id))
        if method in self.refuse:
            raise RecoveryError(f"{method} refused")

    def periodic_checkpoint(self, timeout=None):
        self._control("periodic_checkpoint")

    def wait_for_quiescence(self, timeout):
        self._control("wait_for_quiescence")

    def crash_replica(self, replica_id):
        self._control("crash_replica", replica_id)
        self.replicas[replica_id].crashed = True

    def recover_replica(self, replica_id):
        self._control("recover_replica", replica_id)
        self.replicas[replica_id].crashed = False

    def restart_replica_from_disk(self, replica_id):
        self._control("restart_replica_from_disk", replica_id)
        self.replicas[replica_id].crashed = False

    def rebalance_shards(self, min_imbalance):
        self._control("rebalance_shards")
        self.shard_router.shard_map.version += 1
        return {"moved_ranges": [(0, 8, 1, 2)]}

    def replica_snapshots(self, quiesce=True):
        live = [replica for replica in self.replicas if not replica.crashed]
        snapshots = [dict(self.state) for _replica in live]
        if self.diverged:
            snapshots[0]["only-here"] = b"x"
        return snapshots

    def client(self):
        self._clients += 1
        return SimpleNamespace(client_id=self._clients, invoke=self.invoke)

    def invoke(self, name, timeout=None, key=None, value=None):
        if self.before_invoke is not None:
            self.before_invoke(name, key)
        with self.lock:
            present = key in self.state
            if name == "read" and self.stale_reads:
                return SimpleNamespace(value=b"never written", error=None)
            if name == "read":
                return SimpleNamespace(
                    value=self.state.get(key), error=None if present else "err=1"
                )
            if name == "insert" and present:
                return SimpleNamespace(value=None, error="err=2")
            if name in ("update", "delete") and not present:
                return SimpleNamespace(value=None, error="err=1")
            if name == "delete":
                del self.state[key]
            else:
                self.state[key] = value
            return SimpleNamespace(value=None, error=None)


def run_skeleton(cluster, plan=(), *, traffic=None, disk_restart=False, shape=SHAPE):
    """`_run_live_episode` on ``cluster``: a hand-written plan, zero gaps."""
    plane = FaultPlane(seed=1)
    plan = [NemesisOp(step, 0.0, kind, target) for step, (kind, target) in enumerate(plan)]
    report = nemesis._new_report(
        "fake", run_skeleton, {"seed": 1}, [op.describe() for op in plan]
    )
    kv_traffic = nemesis._kv_traffic(
        1, shape, 0.0, ("load", "probe", "p"),
        ("update", "read", "insert", "delete"),
        lambda rng: rng.randrange(shape["load_keys"]),
    )
    return nemesis._run_live_episode(
        report, cluster, shape, plane=plane, disk_restart=disk_restart,
        traffic=traffic or kv_traffic,
        schedule=nemesis._plan_schedule(plan),
    )


def statuses(report):
    return [entry["status"] for entry in report["applied"]]


def test_refused_action_is_skipped_and_the_episode_continues():
    cluster = FakeCluster()
    cluster.refuse = {"periodic_checkpoint"}
    report = run_skeleton(
        cluster, [("checkpoint", None), ("crash", 1), ("recover", 1), ("heal", None)]
    )
    assert statuses(report) == ["skipped", "ok", "ok", "ok"]
    assert report["applied"][0]["detail"] == "RecoveryError: periodic_checkpoint refused"
    assert [entry["op"] for entry in report["applied"]] == report["plan"]
    assert len(report["recovery_s"]) == 1
    assert report["ok"], report["failures"]
    assert report["probe_operations"] == nemesis.PROBE_CLIENTS * SHAPE["probe_ops"]
    assert len(report["history"]) == report["probe_operations"]


def test_final_phase_recovers_whoever_is_still_crashed():
    cluster = FakeCluster()
    report = run_skeleton(cluster, [("partition", 2), ("crash", 0), ("crash", 1)])
    assert cluster.calls[-3:] == [
        ("recover_replica", 0), ("recover_replica", 1), ("wait_for_quiescence", None),
    ]
    assert report["live_replicas"] == 3 and report["ok"], report["failures"]


def test_final_phase_falls_back_from_disk_restart_to_plain_recovery():
    cluster = FakeCluster()
    cluster.refuse = {"restart_replica_from_disk"}
    report = run_skeleton(cluster, [("crash", 2)], disk_restart=True)
    assert cluster.calls[0] == ("periodic_checkpoint", None)  # seeds the chains
    assert cluster.calls[-3:] == [
        ("restart_replica_from_disk", 2), ("recover_replica", 2),
        ("wait_for_quiescence", None),
    ]
    assert not cluster.replicas[2].crashed
    assert len(report["recovery_s"]) == 1
    assert report["ok"], report["failures"]


def _load_times_out(cluster):
    def before_invoke(name, key):
        if key not in nemesis.PROBE_KEYS:
            raise TimeoutError("no answer")
    cluster.before_invoke = before_invoke


@pytest.mark.parametrize("break_it, failure", [
    (lambda c: setattr(c, "pending", 1), "multicast did not drain"),
    (lambda c: setattr(c, "diverged", True), "replica states diverged"),
    (lambda c: c.replicas.pop(), "not every replica was live at the end"),
    (lambda c: setattr(c, "marker_boundary_violations", 2), "marker boundary violations"),
    (_load_times_out, "load invocations timed out"),
    (lambda c: setattr(c, "stale_reads", True), "linearizability:"),
])
def test_each_failure_clause_flips_ok(break_it, failure):
    cluster = FakeCluster()
    break_it(cluster)
    report = run_skeleton(cluster, [("heal", None)])
    assert not report["ok"]
    assert len(report["failures"]) == 1 and failure in report["failures"][0]


def test_probe_dying_mid_episode_fails_it_instead_of_shortening_the_history():
    # At the parent the thread died silently and the oracle passed on the
    # two operations it had recorded.
    cluster = FakeCluster()
    seen = []

    def third_probe_call_raises(name, key):
        if key in nemesis.PROBE_KEYS:
            seen.append(threading.current_thread().name)
            if seen.count("probe0") == 3 and seen[-1] == "probe0":
                raise RuntimeError("boom")

    cluster.before_invoke = third_probe_call_raises
    report = run_skeleton(cluster)
    assert not report["ok"] and report["linearizable"]
    assert "traffic threads died: {'probe0': RuntimeError('boom')}" in report["failures"]
    expected = nemesis.PROBE_CLIENTS * SHAPE["probe_ops"]
    assert report["probe_operations"] == expected - 1  # the failed call is pending
    assert f"history holds {expected - 1} probe operations, expected {expected}" in (
        report["failures"]
    )


def test_traffic_thread_that_outlives_its_join_fails_the_episode():
    release = threading.Event()
    try:
        report = run_skeleton(
            FakeCluster(), traffic=lambda live: [("stuck", release.wait)],
            shape=dict(SHAPE, probe_ops=0, quiesce_timeout=0.05),
        )
    finally:
        release.set()
    assert report["failures"] == ["traffic threads outlived their 0.05s join: ['stuck']"]


@pytest.fixture
def built(monkeypatch):
    """Runners build fake clusters (listed here); shard rounds have no gap."""
    clusters = []

    def fake_kv_cluster(runtime, seed, shape, **control):
        clusters.append(FakeCluster(shape["num_replicas"]))
        return clusters[-1]

    monkeypatch.setattr(nemesis, "_kv_cluster", fake_kv_cluster)
    monkeypatch.setitem(nemesis.SHARD, "migration_gap", 0.0)
    return clusters


def test_one_skeleton_serves_a_plan_and_rebalance_rounds(built, monkeypatch, tmp_path):
    planned = nemesis.run_live_nemesis_episode(
        14, store_dir=str(tmp_path), steps=10, mean_gap=0.0
    )
    assert planned["ok"], planned["failures"]
    assert [entry["op"] for entry in planned["applied"]] == planned["plan"]
    assert set(statuses(planned)) == {"ok"}
    assert {"crash_replica", "recover_replica", "restart_replica_from_disk"} <= {
        method for method, _replica in built[-1].calls
    }

    rounds = nemesis.run_shard_migration_episode(5)
    assert rounds["ok"], rounds["failures"]
    assert rounds["runtime"] == "shard-threaded"
    assert [entry["op"] for entry in rounds["applied"]] == rounds["plan"]
    assert len(rounds["migrations"]) == nemesis.SHARD["migrations"] == len(rounds["plan"])
    assert rounds["final_map_version"] == nemesis.SHARD["migrations"]
    assert ("periodic_checkpoint", None) not in built[-1].calls  # nothing to restart

    monkeypatch.setattr(FakeCluster, "rebalance_shards", lambda self, min_imbalance: None)
    idle = nemesis.run_shard_migration_episode(5)
    assert "no migration happened (load never unbalanced the map)" in idle["failures"]


@pytest.mark.parametrize("call", [
    "run_live_nemesis_episode(seed=14, runtime='threaded', store_dir=None, "
    "steps=10, mean_gap=0.08)",
    "run_live_nemesis_episode(seed=20260808, runtime='proc', store_dir='/x', "
    "steps=4, mean_gap=0.25)",
    "run_shard_migration_episode(seed=20260808, runtime='proc')",
    "run_frontend_nemesis_episode(seed=11)",
])
def test_reproduce_is_the_call_that_regenerates_the_plan(built, monkeypatch, call):
    # At the parent the hint was "run_{runtime}_nemesis_episode(seed=N)": no
    # such function for runtime "shard-proc", another plan for steps=10.
    monkeypatch.setattr(
        nemesis, "_run_live_episode", lambda report, *args, **hooks: nemesis._fold(report, [])
    )
    report = eval(call, vars(nemesis))
    assert report["reproduce"] == call
    assert callable(getattr(nemesis, call.partition("(")[0]))


@pytest.mark.parametrize("call, removed", [
    pytest.param(partial(nemesis.run_live_nemesis_episode, 1), "num_replicas",
                 id="run_live_nemesis_episode-num_replicas"),
    pytest.param(partial(nemesis.run_live_nemesis_episode, 1), "probe_ops",
                 id="run_live_nemesis_episode-probe_ops"),
    pytest.param(partial(nemesis.run_shard_migration_episode, 1), "migrations",
                 id="run_shard_migration_episode-migrations"),
    pytest.param(partial(nemesis.run_frontend_nemesis_episode, 1), "max_in_flight",
                 id="run_frontend_nemesis_episode-max_in_flight"),
    pytest.param(partial(nemesis._fault_plan, "threaded", nemesis.run_live_nemesis_episode,
                         {"seed": 1}, nemesis.LIVE["threaded"], nemesis.THREADED_KINDS),
                 "scale", id="_fault_plan-scale"),
    pytest.param(FaultPlane, "record_schedule", id="FaultPlane-record_schedule"),
    pytest.param(partial(CheckpointPolicy, every_messages=10), "compression",
                 id="CheckpointPolicy-compression"),
    pytest.param(run_nemesis, "warmup", id="run_nemesis-warmup"),
    pytest.param(run_nemesis, "duration", id="run_nemesis-duration"),
    pytest.param(MulticastConfig, "delivery_batching", id="MulticastConfig-delivery_batching"),
    pytest.param(CostModelConfig, "batched_delivery_share",
                 id="CostModelConfig-batched_delivery_share"),
    *(pytest.param(partial(build_kv_system, "P-SMR", 2), removed,
                   id=f"build_kv_system-{removed}")
      for removed in ("checkpoint_policy", "delivery_batching", "fault_plane", "num_replicas")),
    *(pytest.param(partial(PSMRSystem, None, None, None, None), removed,
                   id=f"PSMRSystem-{removed}")
      for removed in ("checkpoint_policy", "fault_plane")),
    *(pytest.param(partial(SimStream, None, 1, None, None, None), removed,
                   id=f"SimStream-{removed}")
      for removed in ("fault_plane", "fault_node_namer")),
])
def test_a_removed_keyword_is_a_type_error(call, removed):
    with pytest.raises(TypeError, match=removed):
        call(**{removed: 2})

