"""Asyncio bridge from HTTP handlers onto the cluster's pipelined path.

The clusters are thread-world: ``invoke_async`` returns a
:class:`~repro.runtime.cluster.PendingInvocation` whose response is
delivered on a replica worker thread.  HTTP handlers are asyncio-world.
:class:`ClusterBackend` connects the two without a thread-per-request:

* each event loop gets its own ``cluster.client()`` (clients carry a
  private uid sequence, so they must not be shared across loops) and its
  own *inbox*;
* ``submit()`` creates an asyncio future, submits via ``invoke_async``,
  and attaches a done-callback that appends ``(future, response)`` to
  the loop's inbox — waking the loop with ``call_soon_threadsafe`` only
  when the inbox was empty, so a burst of responses (one ``r`` frame
  answers a whole delivery batch) costs one wake-up, not one each;
* a timeout ``discard()``s the invocation so the late response is
  dropped at the router — an abandoned HTTP request cannot leak a
  waiter or resolve a dead future.

Works identically against ``ThreadedPSMRCluster`` and
``ProcessPSMRCluster``: both inherit the ``ResponseRouter`` waiter
surface and both hand out ``ThreadedClient`` proxies.
"""

import asyncio
import threading
import weakref
from functools import partial


class BackendTimeout(Exception):
    """The cluster did not respond within the per-request budget.

    The command may still execute (it was already multicast), so the
    HTTP layer must report this as *indeterminate* (503), never as a
    clean failure.
    """

    def __init__(self, name, timeout):
        super().__init__(f"{name!r} timed out after {timeout:.3f}s")
        self.name = name
        self.timeout = timeout


class _LoopPort:
    """One event loop's end of the bridge: its client and its inbox.

    Holds no reference to the loop, so the backend's weak-keyed entry
    dies with it.
    """

    def __init__(self, client):
        self.client = client
        self._lock = threading.Lock()
        self._inbox = []  # (future, response) landed, not yet resolved

    def deliver(self, loop, future, response):
        """Any thread: file a response; wake ``loop`` if nobody has."""
        with self._lock:
            wake = not self._inbox  # non-empty: a drain is already due
            self._inbox.append((future, response))
        if wake:
            try:
                loop.call_soon_threadsafe(self._drain)
            except RuntimeError:
                # The loop is gone (the app shut down): the responses
                # drop, and with them the futures that pin the loop.
                with self._lock:
                    self._inbox.clear()

    def _drain(self):
        with self._lock:
            landed, self._inbox = self._inbox, []
        for future, response in landed:
            if not future.done():
                future.set_result(response)


class ClusterBackend:
    """Per-worker submission bridge over one cluster.

    One instance serves every handler coroutine of an app; it is safe to
    share across event loops (each loop lazily gets its own client).
    """

    def __init__(self, cluster, default_timeout=10.0):
        self.cluster = cluster
        self.default_timeout = default_timeout
        # Keyed on the loop itself, weakly: an ``id()`` is reused once a
        # closed loop is collected, and the next loop would inherit its
        # inbox.
        self._ports = weakref.WeakKeyDictionary()
        self._ports_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.timed_out = 0

    # ------------------------------------------------------------------
    def _port_for_loop(self, loop):
        with self._ports_lock:
            port = self._ports.get(loop)
            if port is None:
                port = self._ports[loop] = _LoopPort(self.cluster.client())
            return port

    async def submit(self, name, timeout=None, **args):
        """Invoke ``name(**args)`` on the cluster; await the first response.

        Raises :class:`BackendTimeout` when no replica answers in time —
        after discarding the invocation, so nothing leaks.
        """
        if timeout is None:
            timeout = self.default_timeout
        loop = asyncio.get_running_loop()
        port = self._port_for_loop(loop)
        future = loop.create_future()
        with self._stats_lock:
            self.submitted += 1
        pending = port.client.invoke_async(name, **args)
        # Fires on whichever thread delivers the response (or right here,
        # if it already landed).
        pending.add_done_callback(partial(port.deliver, loop, future))
        try:
            response = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            pending.discard()
            with self._stats_lock:
                self.timed_out += 1
            raise BackendTimeout(name, timeout) from None
        with self._stats_lock:
            self.completed += 1
        return response

    # ------------------------------------------------------------------
    @property
    def runtime(self):
        """``"threaded"`` or ``"process"`` — surfaced in ``/healthz``."""
        return "process" if "Process" in type(self.cluster).__name__ else "threaded"

    def health(self):
        live = self.cluster.live_replicas()
        total = getattr(self.cluster, "num_replicas", len(live))
        return {
            "status": "ok" if len(live) == total else "degraded",
            "runtime": self.runtime,
            "live_replicas": len(live),
            "num_replicas": total,
        }

    def stats(self):
        with self._stats_lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "timed_out": self.timed_out,
            }
