"""Integration tests: short end-to-end runs of every simulated technique."""

import pytest

from repro.harness import (
    build_kv_system,
    build_netfs_system,
    run_kv_technique,
    run_netfs_technique,
)
from repro.multicast import OrderChecker
from repro.workload import DEPENDENT_ONLY_MIX, READ_ONLY_MIX, mixed_workload

TECHNIQUES = ("SMR", "P-SMR", "sP-SMR", "no-rep", "BDB")

#: Short windows keep the whole module under a minute.
FAST = dict(warmup=0.005, duration=0.02)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_read_only_run_completes(technique):
    result = run_kv_technique(
        technique, 2, mix=READ_ONLY_MIX, num_clients=8, **FAST
    )
    assert result.completed > 0
    assert result.throughput_kcps > 0
    assert result.avg_latency_ms > 0
    assert result.technique == technique


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_dependent_run_completes(technique):
    result = run_kv_technique(
        technique, 2, mix=DEPENDENT_ONLY_MIX, num_clients=6, **FAST
    )
    assert result.completed > 0
    assert result.throughput_kcps > 0


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_mixed_run_completes(technique):
    result = run_kv_technique(
        technique, 4, mix=mixed_workload(0.05), num_clients=8, **FAST
    )
    assert result.completed > 0


def test_cpu_percent_bounded_by_thread_count():
    result = run_kv_technique("P-SMR", 4, mix=READ_ONLY_MIX, num_clients=20, **FAST)
    # One replica cannot use more CPU than its worker threads can provide.
    assert result.cpu_percent <= 4 * 100.0 + 1.0


def test_latency_cdf_is_monotonic():
    result = run_kv_technique("P-SMR", 2, mix=READ_ONLY_MIX, num_clients=8, **FAST)
    fractions = [fraction for _lat, fraction in result.latency_cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)


def test_zipfian_workload_runs():
    result = run_kv_technique(
        "P-SMR", 4, mix={"read": 0.5, "update": 0.5}, distribution="zipfian",
        num_clients=12, **FAST
    )
    assert result.completed > 0


@pytest.mark.parametrize("technique", ("SMR", "sP-SMR", "P-SMR"))
@pytest.mark.parametrize("operation", ("read", "write"))
def test_netfs_runs(technique, operation):
    result = run_netfs_technique(
        technique, 2, operation=operation, num_clients=6, **FAST
    )
    assert result.completed > 0
    assert result.throughput_kcps > 0


# ----------------------------------------------------------------------
# State-machine execution inside the simulator: replicas must converge.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("technique", ("SMR", "P-SMR", "sP-SMR"))
def test_replicated_state_converges(technique):
    system = build_kv_system(
        technique, 3, mix=mixed_workload(0.2), key_space=200,
        num_clients=4, execute_state=True, initial_keys=200,
    )
    system.run(warmup=0.002, duration=0.01)
    # Stop the load and let both replicas finish the commands in flight
    # before comparing their states.
    assert system.quiesce() == 0
    snapshots = [
        system.replica_state(replica_id).snapshot()
        for replica_id in range(system.config.num_replicas)
    ]
    assert len(snapshots) == 2
    assert snapshots[0] == snapshots[1]
    assert len(snapshots[0]) > 0


def test_p_smr_replicas_converge_under_round_robin_merge():
    system = build_kv_system(
        "P-SMR", 3, mix=mixed_workload(0.2), key_space=200, num_clients=4,
        execute_state=True, initial_keys=200, merge_policy="round_robin",
    )
    system.run(warmup=0.002, duration=0.01)
    assert system.quiesce() == 0
    first, second = (system.replica_state(replica_id).snapshot() for replica_id in (0, 1))
    assert first == second
    assert len(first) > 0


@pytest.mark.parametrize(
    "mix",
    (READ_ONLY_MIX, DEPENDENT_ONLY_MIX, mixed_workload(0.2)),
    ids=("independent", "dependent", "mixed"),
)
def test_p_smr_executes_every_command_once_per_replica(mix):
    """A parallel-mode command is applied by the one thread that delivers
    it, a synchronous-mode one by its executor only — never by the threads
    that assist it — and every barrier is released."""
    system = build_kv_system(
        "P-SMR", 4, mix=mix, key_space=200, num_clients=4,
        execute_state=True, initial_keys=200,
    )
    system.run(warmup=0.002, duration=0.01)
    assert system.quiesce() == 0
    for replica in system.replicas:
        executed = sum(worker.executed for worker in replica["workers"])
        assert executed == system.clients.submitted
        assert replica["state"].commands_executed == system.clients.submitted
        assert replica["barrier"].pending() == 0


@pytest.mark.parametrize("technique", ("SMR", "sP-SMR", "P-SMR"))
@pytest.mark.parametrize("operation", ("read", "write"))
def test_netfs_replicated_state_converges(technique, operation):
    system = build_netfs_system(
        technique, 2, operation=operation, num_clients=6, execute_state=True
    )
    system.run(warmup=0.002, duration=0.01)
    assert system.quiesce() == 0
    first, second = (system.replica_state(replica_id).snapshot() for replica_id in (0, 1))
    assert first == second
    assert len(first) > 0


# ----------------------------------------------------------------------
# Atomic multicast: agreement and acyclic order of the sim's streams.
# ----------------------------------------------------------------------
def _subscriber_inboxes(system):
    """Map ``(replica, thread)`` to the inbox that feeds that thread."""
    if system.name == "P-SMR":
        return {
            (replica_id, worker.index): worker.inbox
            for replica_id, replica in enumerate(system.replicas)
            for worker in replica["workers"]
        }
    return {(replica_id, 1): replica.inbox for replica_id, replica in enumerate(system.replicas)}


def _record_releases(checker, subscriber_id, inbox):
    drain = inbox.drain

    def recording_drain():
        batches = drain()
        for batch in batches:
            for command in batch.commands:
                checker.record(subscriber_id, command.uid)
        return batches

    inbox.drain = recording_drain


@pytest.mark.parametrize(
    "technique, merge_policy",
    (("SMR", None), ("sP-SMR", None), ("P-SMR", "timestamp"), ("P-SMR", "round_robin")),
    ids=("SMR", "sP-SMR", "P-SMR-timestamp", "P-SMR-round-robin"),
)
def test_streams_deliver_with_agreement_and_acyclic_order(technique, merge_policy):
    system = build_kv_system(
        technique, 3, mix=mixed_workload(0.2), key_space=200, num_clients=4,
        merge_policy=merge_policy,
    )
    checker = OrderChecker()
    inboxes = _subscriber_inboxes(system)
    for subscriber_id, inbox in inboxes.items():
        _record_releases(checker, subscriber_id, inbox)
    replicas = range(system.config.num_replicas)
    submit = system.clients.submit_fn

    def submit_and_expect(command):
        submit(command)  # sets the command's destination groups
        threads = (
            system.layout.threads_for_destinations(command.destinations)
            if technique == "P-SMR" else [1]
        )
        checker.expect(command.uid, [(r, t) for r in replicas for t in threads])

    system.clients.submit_fn = submit_and_expect
    system.run(warmup=0.002, duration=0.01)
    assert system.quiesce() == 0
    assert checker.check_all()
    # Every replica's subscribers released something.
    assert all(checker.deliveries_of(subscriber) for subscriber in inboxes)


# ----------------------------------------------------------------------
# A run is a function of its configuration and seed.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_same_seed_gives_identical_results(technique):
    first, second = (
        run_kv_technique(
            technique, 2, mix=mixed_workload(0.05), num_clients=6, seed=7, **FAST
        )
        for _ in range(2)
    )
    assert first == second


def test_single_server_techniques_apply_state():
    for technique in ("no-rep", "BDB"):
        system = build_kv_system(
            technique, 2, mix=mixed_workload(0.1), key_space=100,
            num_clients=4, execute_state=True, initial_keys=100,
        )
        system.run(warmup=0.002, duration=0.01)
        state = system.replica_state(0)
        assert state.commands_executed > 0


def test_p_smr_scales_beyond_smr_with_independent_commands():
    """The headline claim, checked at reduced scale."""
    smr = run_kv_technique("SMR", 1, mix=READ_ONLY_MIX, num_clients=30, **FAST)
    psmr = run_kv_technique("P-SMR", 8, mix=READ_ONLY_MIX, num_clients=80, **FAST)
    assert psmr.throughput_kcps > 2.0 * smr.throughput_kcps


def test_smr_beats_p_smr_with_dependent_commands():
    smr = run_kv_technique("SMR", 1, mix=DEPENDENT_ONLY_MIX, num_clients=20, **FAST)
    psmr = run_kv_technique("P-SMR", 1, mix=DEPENDENT_ONLY_MIX, num_clients=20, **FAST)
    assert smr.throughput_kcps > psmr.throughput_kcps


def test_merge_policy_round_robin_still_completes():
    result = run_kv_technique(
        "P-SMR", 2, mix=READ_ONLY_MIX, merge_policy="round_robin",
        num_clients=8, **FAST
    )
    assert result.completed > 0


def test_coarse_cg_reduces_update_throughput():
    fine = run_kv_technique(
        "P-SMR", 4, mix={"read": 0.5, "update": 0.5}, num_clients=16, **FAST
    )
    coarse = run_kv_technique(
        "P-SMR", 4, mix={"read": 0.5, "update": 0.5}, coarse_cg=True,
        num_clients=16, **FAST
    )
    assert coarse.throughput_kcps < fine.throughput_kcps
