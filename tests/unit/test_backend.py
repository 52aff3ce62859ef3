"""Unit tests for the frontend's cluster bridge: the per-loop inbox and
deadline queue behind ``submit``, a plain call that returns a future."""

import asyncio
import gc
import threading

import pytest

from repro.frontend.app import create_app
from repro.frontend.backend import BackendTimeout, ClusterBackend
from repro.frontend.testing import AsgiClient
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

    async def submit():
        return backend.submit("read", key=1)

    # Still unanswered, so still in the deadline queue, when the loop closes.
    future = loop.run_until_complete(submit())
    loop.close()
    # On the cluster's thread: must neither raise nor pin the dead loop.
    cluster.pendings[0].callback("late")
    cluster.pendings[0].callback = None
    assert not future.done()
    del loop, future
    gc.collect()
    assert len(backend._ports) == 0


def test_sequential_loops_each_get_their_own_port():
    """``asyncio.run`` twice against one backend: a closed loop's entry
    must die with it, not be inherited by whichever loop is allocated at
    the same address next."""
    service = lambda: KeyValueStoreServer(initial_keys=4)  # noqa: E731
    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=2) as cluster:
        backend = ClusterBackend(cluster)

        async def one(name, **args):
            return await backend.submit(name, **args)

        first = asyncio.run(one("update", key=1, value=b"one"))
        gc.collect()
        assert len(backend._ports) == 0
        second = asyncio.run(one("read", key=1))
        assert first.error is None
        assert (second.error, second.value) == (None, b"one")
        assert first.uid[0] != second.uid[0]  # a client per loop
    assert backend.stats() == {"submitted": 2, "completed": 2, "timed_out": 0}


def test_pipelined_submits_cost_no_task_and_share_one_timer():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)
    count = 32

    async def main():
        loop = asyncio.get_running_loop()
        timers = []
        call_at = loop.call_at

        def recording(when, callback, *args):
            timers.append(call_at(when, callback, *args))
            return timers[-1]

        loop.call_at = recording
        tasks = asyncio.all_tasks()
        for wave in range(3):
            futures = [backend.submit("read", key=key) for key in range(count)]
            # Before the first await: every command is multicast already.
            assert len(cluster.pendings) == (wave + 1) * count
            assert all(isinstance(future, asyncio.Future) for future in futures)
            assert asyncio.all_tasks() == tasks  # nothing but this coroutine
            assert len([timer for timer in timers if not timer.cancelled()]) == 1
            if wave == 1:
                continue  # twice the window in flight, still one timer
            for pending in cluster.pendings:
                if pending.callback is not None:
                    pending.callback, landed = None, pending.callback
                    landed("value")
            assert await futures[-1] == "value"

    asyncio.run(main())
    assert backend.stats() == {
        "submitted": 3 * count, "completed": 3 * count, "timed_out": 0,
    }


def test_mixed_timeouts_expire_in_deadline_order_each_once():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)
    timeouts = {"long": 0.09, "short": 0.01, "middle": 0.05, "longest": 0.13}
    expired = []

    async def main():
        clock = asyncio.get_running_loop().time
        started = clock()
        futures = {
            name: backend.submit(name, timeout=timeout)
            for name, timeout in timeouts.items()
        }
        for name, future in futures.items():
            future.add_done_callback(lambda _future, name=name: expired.append(name))
        for name in ("short", "middle", "long", "longest"):  # deadline order
            with pytest.raises(BackendTimeout) as caught:
                await futures[name]
            assert (caught.value.name, caught.value.timeout) == (name, timeouts[name])
            # Never early; how late is the loop's business (a stalled loop
            # expires several at once — the order is asserted below).
            assert clock() >= started + timeouts[name]
        await asyncio.sleep(0.02)  # a second expiry of anything would land

    asyncio.run(main())
    assert expired == ["short", "middle", "long", "longest"]
    assert all(pending.discarded for pending in cluster.pendings)
    assert backend.stats() == {"submitted": 4, "completed": 0, "timed_out": 4}
    assert backend.timed_out == 4


def test_an_unanswered_batch_is_one_503_and_leaves_nothing_behind(caplog):
    """An unstarted cluster never answers.  Every op of the batch times
    out at once; the handler sees the first, and the other futures'
    exceptions must not read as lost in asyncio's log."""
    service = lambda: KeyValueStoreServer(initial_keys=4)  # noqa: E731
    cluster = ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=2)
    app = create_app(kv_backend=ClusterBackend(cluster), request_timeout=0.05)
    ops = [{"op": "read", "key": key} for key in range(8)]

    async def main():
        response = await AsgiClient(app).post("/kv/batch", json={"ops": ops})
        gc.collect()
        await asyncio.sleep(0)
        return response

    with caplog.at_level("ERROR", logger="asyncio"):
        response = asyncio.run(main())
        gc.collect()
    assert response.status_code == 503
    assert "never retrieved" not in caplog.text
    assert not cluster._waiters  # every invocation was discarded
    assert app.kv_backend.stats() == {
        "submitted": len(ops), "completed": 0, "timed_out": len(ops),
    }
    assert app.limiter.in_flight == 0


def test_a_cancelled_handler_has_its_invocations_discarded():
    """The client went away mid-flight: what its handler had submitted is
    dropped at the router by the deadline, not left registered for ever."""
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)

    async def handler():
        futures = [backend.submit("read", timeout=0.03, key=key) for key in range(3)]
        for future in futures:
            await future

    async def main():
        task = asyncio.ensure_future(handler())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert len(cluster.pendings) == 3
        # A later request's submit finds the cancelled one at the front.
        backend.submit("read", timeout=0.03, key=9).cancel()
        assert cluster.pendings[0].discarded
        await asyncio.sleep(0.06)

    asyncio.run(main())
    assert all(pending.discarded for pending in cluster.pendings)


def test_stats_stay_exact_across_loops_and_after_one_is_collected():
    cluster = _ScriptedCluster()
    backend = ClusterBackend(cluster)

    async def main(answered, unanswered):
        futures = [backend.submit("read", key=key) for key in range(answered)]
        for pending in cluster.pendings[-answered:]:
            pending.callback("value")
        await asyncio.gather(*futures)
        for key in range(unanswered):
            with pytest.raises(BackendTimeout):
                await backend.submit("read", timeout=0.001, key=key)

    asyncio.run(main(5, 1))
    for pending in cluster.pendings:
        pending.callback = None  # the router drops a slot it answered or discarded
    gc.collect()
    assert len(backend._ports) == 0  # the first loop and its port are gone
    assert backend.stats() == {"submitted": 6, "completed": 5, "timed_out": 1}
    # Two loops alive at once, one of them on another thread.
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(main(2, 0))
        other = threading.Thread(target=asyncio.run, args=(main(3, 2),))
        other.start()
        other.join(10.0)
        assert not other.is_alive()
        assert backend.stats() == {"submitted": 13, "completed": 10, "timed_out": 3}
    finally:
        loop.close()
