"""Unit tests for the frontend's cluster bridge: the per-loop inbox."""

import asyncio
import gc
import threading

import pytest

from repro.frontend.backend import BackendTimeout, ClusterBackend
from repro.runtime import ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


class _Pending:
    def __init__(self):
        self.callback = None
        self.discarded = False

    def add_done_callback(self, callback):
        self.callback = callback
        return True

    def discard(self):
        self.discarded = True


class _ScriptedCluster:
    """What :class:`ClusterBackend` needs of a cluster, with responses the
    test completes by hand (and from the thread it chooses)."""

    def __init__(self):
        self.pendings = []

    def client(self):
        return self

    def invoke_async(self, name, **args):
        self.pendings.append(_Pending())
        return self.pendings[-1]


def test_a_burst_of_responses_is_one_loop_wakeup():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)
    count = 32

    async def main():
        loop = asyncio.get_running_loop()
        tasks = [
            asyncio.ensure_future(backend.submit("read", key=key))
            for key in range(count)
        ]
        await asyncio.sleep(0)  # every submit reaches its await
        assert len(cluster.pendings) == count
        wakeups = []
        schedule = loop.call_soon_threadsafe

        def recording(callback, *args):
            wakeups.append(callback)
            return schedule(callback, *args)

        loop.call_soon_threadsafe = recording

        def respond():
            for key, pending in enumerate(cluster.pendings):
                pending.callback(key * 10)

        responder = threading.Thread(target=respond)
        responder.start()
        responder.join(5.0)  # blocks the loop: it is busy while they land
        assert not responder.is_alive()
        assert await asyncio.gather(*tasks) == [key * 10 for key in range(count)]
        assert len(wakeups) == 1

    asyncio.run(main())
    assert backend.stats() == {
        "submitted": count, "completed": count, "timed_out": 0,
    }


def test_a_timed_out_submit_discards_and_drops_the_late_response():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)

    async def main():
        with pytest.raises(BackendTimeout):
            await backend.submit("read", timeout=0.01, key=1)
        (pending,) = cluster.pendings
        assert pending.discarded
        # A callback the router had already claimed may still fire.
        pending.callback("late")
        await asyncio.sleep(0)  # the inbox drains onto a dead future
        # The bridge still works afterwards.
        task = asyncio.ensure_future(backend.submit("read", key=2))
        await asyncio.sleep(0)
        cluster.pendings[1].callback("fresh")
        assert await task == "fresh"

    asyncio.run(main())
    assert backend.stats() == {"submitted": 2, "completed": 1, "timed_out": 1}


def test_a_response_for_a_closed_loop_is_swallowed():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)
    loop = asyncio.new_event_loop()
    task = loop.create_task(backend.submit("read", key=1))
    loop.run_until_complete(asyncio.sleep(0))
    task.cancel()
    loop.run_until_complete(asyncio.gather(task, return_exceptions=True))
    loop.close()
    # On the cluster's thread: must neither raise nor pin the dead loop.
    cluster.pendings[0].callback("late")
    cluster.pendings[0].callback = None
    del loop, task
    gc.collect()
    assert len(backend._ports) == 0


def test_sequential_loops_each_get_their_own_port():
    """``asyncio.run`` twice against one backend: a closed loop's entry
    must die with it, not be inherited by whichever loop is allocated at
    the same address next."""
    service = lambda: KeyValueStoreServer(initial_keys=4)  # noqa: E731
    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=2) as cluster:
        backend = ClusterBackend(cluster)
        first = asyncio.run(backend.submit("update", key=1, value=b"one"))
        gc.collect()
        assert len(backend._ports) == 0
        second = asyncio.run(backend.submit("read", key=1))
        assert first.error is None
        assert (second.error, second.value) == (None, b"one")
        assert first.uid[0] != second.uid[0]  # a client per loop
    assert backend.stats() == {"submitted": 2, "completed": 2, "timed_out": 0}
