"""The replica engine's synchronous-mode barrier: one short-lived record
per barrier, typed failures, nothing kept per command."""

import sys
import threading

import pytest

from repro.common.errors import ReplicaCrashedError
from repro.runtime import ThreadedPSMRCluster
from repro.runtime.engine import _BarrierSync
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def _run(target, *args):
    """``target(*args)`` on a thread; its outcome lands in the returned list."""
    outcome = []

    def body():
        try:
            outcome.append(target(*args))
        except BaseException as exc:  # handed to the asserting thread
            outcome.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, outcome


def _joined(*runs):
    for thread, _outcome in runs:
        thread.join(10.0)
        assert not thread.is_alive()
    return [outcome[0] for _thread, outcome in runs]


def test_no_state_is_left_per_command_or_per_marker():
    service = lambda: KeyValueStoreServer(initial_keys=4)  # noqa: E731
    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=4) as cluster:
        client = cluster.client()
        for key in range(100, 140):  # Serial: every thread meets at a barrier
            assert client.invoke("insert", key=key, value=b"v").error is None
            assert client.invoke("delete", key=key).error is None
        cluster.checkpoint()
        barriers = [replica.engine.barrier for replica in cluster.replicas]
    # The workers have exited: whatever a barrier kept, it keeps for good.
    for barrier in barriers:
        assert not any(kept for kept in vars(barrier).values() if isinstance(kept, (set, dict)))


def test_every_thread_passes_every_barrier_in_step():
    """Four threads, more than there are cores, switching often: the
    executor must see every peer arrived, an assistant must see the
    executor done, and every record must be gone afterwards."""
    sync = _BarrierSync()
    rounds, peers = 300, (2, 3, 4)
    arrived = [set() for _ in range(rounds)]
    executed = [False] * rounds

    def executor():
        for uid in range(rounds):
            sync.wait_for_peers(uid, peers, timeout=10.0)
            assert arrived[uid] == set(peers)
            executed[uid] = True
            sync.complete(uid)

    def assistant(index):
        for uid in range(rounds):
            arrived[uid].add(index)
            sync.assist(uid, index, timeout=10.0)
            assert executed[uid]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = _joined(_run(executor), *(_run(assistant, index) for index in peers))
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [None] * 4
    assert sync._barriers == {}


def test_a_crash_mid_barrier_releases_executor_and_assistants():
    sync = _BarrierSync()
    executor = _run(sync.wait_for_peers, "uid", (2, 3), 10.0)
    assistant = _run(sync.assist, "uid", 2, 10.0)  # thread 3 never arrives
    while not (sync._barriers and sync._barriers["uid"].arrived and sync._barriers["uid"].ready):
        assert executor[0].is_alive() and assistant[0].is_alive()
    sync.crash()
    outcomes = _joined(executor, assistant)
    assert all(isinstance(outcome, ReplicaCrashedError) for outcome in outcomes)
    with pytest.raises(ReplicaCrashedError):  # the straggler, after the crash
        sync.assist("uid", 3, 10.0)
    assert sync._barriers == {}


def test_a_barrier_timeout_is_a_timeout_error():
    sync = _BarrierSync()
    with pytest.raises(TimeoutError, match="peers"):
        sync.wait_for_peers("execute", (2,), timeout=0.01)
    with pytest.raises(TimeoutError, match="executor"):
        sync.assist("assist", 2, timeout=0.01)
