"""The replica engine's synchronous-mode barrier: the arrival that
completes it runs, the rest park until it releases them; typed failures;
nothing kept per command."""

import random
import sys
import threading
import time
from collections import deque

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


def _joined(*runs, timeout=10.0):
    for thread, _outcome in runs:
        thread.join(timeout)
        assert not thread.is_alive()
    return [outcome[0] for _thread, outcome in runs]


def _parked(sync, uid, count):
    """Spin until ``count`` arrivals are parked at ``uid``."""
    deadline = time.monotonic() + 10.0
    while len(sync._barriers.get(uid, ())) < count:
        assert time.monotonic() < deadline, f"{count} arrivals never parked"
        time.sleep(0.001)


def _assert_no_barrier_kept(barriers):
    # The workers have exited: whatever a barrier kept, it keeps for good.
    for barrier in barriers:
        assert barrier._barriers == {}
        assert not any(kept for kept in vars(barrier).values() if isinstance(kept, (set, dict)))


def test_no_state_is_left_per_command_or_per_marker():
    service = lambda: KeyValueStoreServer(initial_keys=4)  # noqa: E731
    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=4) as cluster:
        client = cluster.client()
        for key in range(100, 140):  # Serial: every thread meets at a barrier
            assert client.invoke("insert", key=key, value=b"v").error is None
            assert client.invoke("delete", key=key).error is None
        cluster.checkpoint()
        barriers = [replica.engine.barrier for replica in cluster.replicas]
    _assert_no_barrier_kept(barriers)


def test_no_state_is_left_when_barriers_overlap():
    """Two pipelining clients keep barriers of different commands open at
    once on every replica; once a cut has run, none of them is kept."""
    service = lambda: KeyValueStoreServer(initial_keys=256)  # noqa: E731
    window, per_client = 32, 1000

    def drive(client, seed):
        rng = random.Random(seed)
        in_flight = deque()
        for _ in range(per_client):
            name = rng.choice(("update", "update", "insert", "delete"))
            args = {"key": rng.randrange(512)}
            if name != "delete":
                args["value"] = b"v"
            in_flight.append(client.invoke_async(name, **args))
            if len(in_flight) == window:
                in_flight.popleft().result()
        while in_flight:
            in_flight.popleft().result()

    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=4) as cluster:
        outcomes = _joined(
            *(_run(drive, cluster.client(), seed) for seed in (1, 2)), timeout=60.0
        )
        assert outcomes == [None, None]
        cluster.checkpoint()
        snapshots = cluster.replica_snapshots()
        barriers = [replica.engine.barrier for replica in cluster.replicas]
    assert all(snapshot == snapshots[0] for snapshot in snapshots)
    _assert_no_barrier_kept(barriers)


def test_every_thread_passes_every_barrier_in_step():
    """Four threads, more than there are cores, switching often: each round
    has one completer, which saw every other arrival, every parked thread
    sees the round executed, and every record is gone afterwards."""
    sync = _BarrierSync()
    rounds, threads = 300, (1, 2, 3, 4)
    arrived = [set() for _ in range(rounds)]
    completers = [[] for _ in range(rounds)]
    executed = [False] * rounds

    def worker(index):
        for uid in range(rounds):
            arrived[uid].add(index)
            if sync.arrive(uid, len(threads), timeout=10.0):
                assert arrived[uid] == set(threads)
                completers[uid].append(index)
                time.sleep(0)  # a thread let go too early runs here
                executed[uid] = True
                sync.release(uid)
            else:
                assert executed[uid]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = _joined(*(_run(worker, index) for index in threads))
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [None] * len(threads)
    assert all(len(completer) == 1 for completer in completers)
    assert sync._barriers == {}


def test_a_crash_releases_every_parked_thread():
    sync = _BarrierSync()
    parked = [_run(sync.arrive, "uid", 3, 10.0) for _ in range(2)]
    _parked(sync, "uid", 2)  # the third party never arrives
    sync.crash()
    outcomes = _joined(*parked)
    assert all(isinstance(outcome, ReplicaCrashedError) for outcome in outcomes)
    with pytest.raises(ReplicaCrashedError):  # the straggler, after the crash
        sync.arrive("uid", 3, 10.0)
    assert sync._barriers == {}


def test_a_crash_while_the_completer_runs_frees_the_parked_at_once():
    """The record outlives the completing arrival: a crash during execution
    still finds the parked threads, well inside their timeout."""
    sync = _BarrierSync()
    parked = [_run(sync.arrive, "uid", 3, 30.0) for _ in range(2)]
    _parked(sync, "uid", 2)
    assert sync.arrive("uid", 3, 30.0) is True
    started = time.monotonic()
    sync.crash()  # before the completer's release
    outcomes = _joined(*parked, timeout=5.0)
    assert time.monotonic() - started < 5.0
    assert all(isinstance(outcome, ReplicaCrashedError) for outcome in outcomes)
    sync.release("uid")  # the completer goes on; nothing left to free
    assert sync._barriers == {}


def test_a_barrier_timeout_is_a_timeout_error():
    sync = _BarrierSync()
    with pytest.raises(TimeoutError, match="lonely"):
        sync.arrive("lonely", 2, timeout=0.01)


def test_a_barrier_of_one_completes_at_once():
    sync = _BarrierSync()
    assert sync.arrive("solo", 1, timeout=0.01) is True
    sync.release("solo")
    assert sync._barriers == {}
