"""Nemesis suite: named fault scenarios + seeded randomized episodes.

The oracle for every scenario is the same three-part check the paper's
correctness claim rests on (section IV-E): the client-visible history is
linearizable, all replicas converge to identical service state, and no
checkpoint marker ever cuts through a half-executed batch
(``marker_boundary_violations == 0``).  Faults are injected through the
shared :class:`~repro.common.faults.FaultPlane`, which models the paper's
reliable multicast: faults are latency, never loss or reordering at the
delivery boundary.

Every randomized episode is seeded; a failing episode prints its seed
(and writes a JSON artifact when ``NEMESIS_ARTIFACT_DIR`` is set), and
re-running with that seed regenerates the identical nemesis plan.
"""

import pytest

from repro.common.faults import FaultPlane, Nemesis
from repro.harness.nemesis import (
    LIVE,
    THREADED_KINDS,
    assert_episode_ok,
    run_live_nemesis_episode,
)
from repro.runtime import HistoryRecorder, ThreadedPSMRCluster, check_kv_history
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def make_cluster(plane, num_replicas=2, mpl=2, **kwargs):
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(initial_keys=16),
        mpl=mpl,
        num_replicas=num_replicas,
        seed=7,
        fault_plane=plane,
        **kwargs,
    )


def planned(seed, shape, kinds):
    """The plan a fresh Nemesis built from the constants table regenerates."""
    nemesis = Nemesis(seed, shape["num_replicas"], steps=shape["steps"],
                      mean_gap=shape["mean_gap"], kinds=kinds)
    return [op.describe() for op in nemesis.plan]


# ----------------------------------------------------------------------
# Named scenarios, threaded runtime
# ----------------------------------------------------------------------

class TestPartitionHealThreaded:
    def test_partitioned_replica_catches_up_after_heal(self):
        plane = FaultPlane(seed=3, retransmit_backoff=0.005)
        with make_cluster(plane) as cluster:
            client = cluster.client()
            plane.isolate("replica1")
            for key in range(16):
                client.invoke("update", key=key, value=b"during-partition")
            # The isolated replica's deliveries are parked in the pipe, so
            # the multicast must report them as still pending (this is the
            # quiescence fix: a partition window must not look drained).
            assert cluster.multicast.pending_count(1) > 0
            plane.heal()
            cluster.wait_for_quiescence(timeout=20.0)
            assert cluster.multicast.pending_count() == 0
            snapshots = cluster.replica_snapshots(quiesce=False)
            assert snapshots[0] == snapshots[1]

    def test_quiescence_does_not_return_early_during_delay_window(self):
        # Regression: pending_count()/is_drained() must include copies the
        # fault plane is still holding.  A fixed 150 ms link delay keeps
        # deliveries in flight well past the enqueue; quiescence must wait
        # them out rather than observe empty worker queues and return.
        plane = FaultPlane(seed=5)
        plane.set_link(delay=1.0, delay_range=(0.15, 0.15))
        with make_cluster(plane) as cluster:
            client = cluster.client()
            pending = client.invoke_async("update", key=0, value=b"late")
            assert cluster.multicast.pending_count() > 0
            assert not cluster.multicast.is_drained()
            cluster.wait_for_quiescence(timeout=20.0)
            assert cluster.multicast.pending_count() == 0
            assert pending.result(timeout=1.0).error is None
            snapshots = cluster.replica_snapshots(quiesce=False)
            assert snapshots[0] == snapshots[1]


class TestLossyLinksThreaded:
    def test_drop_delay_history_linearizable(self):
        plane = FaultPlane(seed=11, retransmit_backoff=0.002)
        plane.set_link(drop=0.3, delay=0.4, delay_range=(0.001, 0.005))
        recorder = HistoryRecorder()
        with make_cluster(plane, num_replicas=3, mpl=3) as cluster:
            client = cluster.client()

            def call(name, args):
                def invoke():
                    response = client.invoke(name, timeout=15.0, **args)
                    if name == "read":
                        return response.value if response.error is None else None
                    return None if response.error is None else response.error
                return invoke

            for index in range(30):
                name = ("insert", "read", "update", "read", "delete", "read")[index % 6]
                args = {"key": 100}
                if name in ("insert", "update"):
                    args["value"] = f"v{index}".encode()
                recorder.timed_call(client.client_id, name, args, call(name, args))
            cluster.wait_for_quiescence(timeout=20.0)
            snapshots = cluster.replica_snapshots(quiesce=False)
            assert all(s == snapshots[0] for s in snapshots)
            assert cluster.marker_boundary_violations == 0
        assert plane.stats["retransmits"] > 0 and plane.stats["delayed"] > 0
        assert check_kv_history(recorder.operations, initial_state={})


# ----------------------------------------------------------------------
# Acceptance episodes: crash + partition + restart-from-disk + checkpoint
# markers interleaved under load, oracle-checked, seed-reproducible.
# ----------------------------------------------------------------------

class TestAcceptanceEpisodes:
    THREADED_SEED = 14  # plan covers all six op kinds at steps=10

    def test_threaded_episode_all_fault_kinds(self, tmp_path):
        nemesis = Nemesis(self.THREADED_SEED, 3, steps=10, mean_gap=0.08,
                          kinds=THREADED_KINDS)
        kinds = {op.kind for op in nemesis.plan}
        assert kinds == set(THREADED_KINDS)
        report = run_live_nemesis_episode(
            seed=self.THREADED_SEED, store_dir=str(tmp_path), steps=10,
        )
        assert_episode_ok(report)
        assert report["reproduce"] == (
            f"run_live_nemesis_episode(seed=14, runtime='threaded', "
            f"store_dir={str(tmp_path)!r}, steps=10, mean_gap=0.08)"
        )
        assert report["linearizable"] and report["converged"]
        assert report["marker_boundary_violations"] == 0
        # Reproducibility: the same seed regenerates the identical plan.
        replay = Nemesis(self.THREADED_SEED, 3, steps=10, mean_gap=0.08,
                         kinds=THREADED_KINDS)
        assert replay.plan == nemesis.plan
        assert report["plan"] == [op.describe() for op in nemesis.plan]


# ----------------------------------------------------------------------
# Seeded randomized sweeps (fixed seeds so CI is deterministic)
# ----------------------------------------------------------------------

class TestSeededSweeps:
    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_threaded_sweep(self, tmp_path, seed):
        report = run_live_nemesis_episode(seed=seed, store_dir=str(tmp_path))
        assert_episode_ok(report)
        assert report["plan"] == planned(seed, LIVE["threaded"], THREADED_KINDS)


# ----------------------------------------------------------------------
# Failure reporting: the seed must be printed and the artifact written
# ----------------------------------------------------------------------

class TestFailureReporting:
    def test_failed_episode_prints_seed_and_writes_artifact(self, tmp_path):
        report = {
            "runtime": "proc",
            "seed": 4242,
            "ok": False,
            "failures": ["replica states diverged"],
            "reproduce": "run_live_nemesis_episode(seed=4242, runtime='proc')",
            "plan": ["[0] t+0.010s crash replica1"],
        }
        with pytest.raises(AssertionError) as excinfo:
            assert_episode_ok(report, artifact_dir=str(tmp_path))
        message = str(excinfo.value)
        assert "seed=4242" in message
        assert "reproduce: run_live_nemesis_episode(seed=4242, runtime='proc')" in message
        artifact = tmp_path / "nemesis-proc-seed4242.json"
        assert artifact.exists()
        assert "replica states diverged" in artifact.read_text()

    def test_passing_episode_returns_report(self):
        report = {"runtime": "threaded", "seed": 1, "ok": True, "failures": []}
        assert assert_episode_ok(report) is report
