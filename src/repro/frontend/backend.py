"""Asyncio bridge from HTTP handlers onto the cluster's pipelined path.

The clusters are thread-world: ``invoke_async`` returns a
:class:`~repro.runtime.cluster.PendingInvocation` whose response is
delivered on a replica worker thread (the threaded runtime) or on the
thread reading the replica links (the process runtime: the I/O loop's).
HTTP handlers are asyncio-world.
:class:`ClusterBackend` connects the two without a thread-per-request,
and without a ``Task``, a coroutine or a timer per command:

* each event loop gets its own ``cluster.client()`` (clients carry a
  private uid sequence, so they must not be shared across loops), its
  own *inbox*, *deadline queue* and counters;
* ``submit()`` is a plain call: it multicasts via ``invoke_async``
  *before it returns* and hands back the future the inbox will resolve.
  ``await backend.submit(...)`` is one command; to pipeline, call it in
  a plain loop and await the futures afterwards — every command is on
  its way to the replicas' delivery batches before the first ``await``;
* ``submit_batch(calls)`` is the pipelined form for independent-looking
  calls: the C-G function packs them into one command per destination
  group (a :data:`~repro.core.command.BATCH` command, answered once
  with every call's answer), each sent through ``submit``;
* the invocation's done-callback resolves the future at once when it
  runs on the future's own loop — the process runtime reads its replica
  links on the I/O loop that serves HTTP (:mod:`repro.runtime.ioloop`),
  so an answer read there is handed over with no wake-up at all.  From
  any other thread (the threaded runtime's workers, or an answer for a
  loop of its own) it appends ``(future, response)`` to the loop's
  inbox — waking the loop with ``call_soon_threadsafe`` only when the
  inbox was empty, so a burst of responses (one ``r`` frame answers a
  whole delivery batch) costs one wake-up, not one each;
* a timeout is a deadline in the loop's queue.  Callers all but always
  pass the same timeout, so deadlines arrive in order: append, let
  answered entries fall off the front, keep one ``loop.call_at`` armed
  for the front (a deadline *earlier* than the tail takes a timer of its
  own).  Expiry ``discard()``s the invocation, so the late response is
  dropped at the router, counts it and fails the future with
  :class:`BackendTimeout`: an abandoned HTTP request cannot leak a
  waiter or resolve a dead future, and a handler cancelled mid-flight
  (the client went away) has its invocations discarded by their
  deadline at the latest.

Works identically against ``ThreadedPSMRCluster`` and
``ProcessPSMRCluster``: both inherit the ``ResponseRouter`` waiter
surface and both hand out ``ThreadedClient`` proxies.
"""

import asyncio
import threading
import weakref
from asyncio import _get_running_loop
from collections import deque
from functools import partial

from repro.core.command import BATCH

_SUBMITTED, _COMPLETED, _TIMED_OUT = range(3)


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
    """One event loop's end of the bridge: client, inbox, deadlines, counters.

    Holds no strong reference to the loop — not in an attribute, not
    through a stored timer handle and not through the futures in the
    deadline queue (they are weak) — so the backend's weak-keyed entry
    dies with it.  Everything but :meth:`deliver` runs on the loop's
    thread.
    """

    def __init__(self, client, counts):
        self.client = client
        #: ``[submitted, completed, timed_out]`` in calls (a batch counts
        #: each of its calls), written by this loop's thread only; the
        #: backend sums every port's.
        self.counts = counts
        self._lock = threading.Lock()
        self._inbox = []  # (future, response, calls) landed, not yet resolved
        #: ``(deadline, weak future, pending, name, timeout, calls)`` in
        #: deadline order; about as long as the window in flight.
        self._deadlines = deque()
        self._armed = False  # one timer at most, for the front's deadline

    def submit(self, loop, name, timeout, args):
        future = loop.create_future()
        calls = len(args["calls"]) if name == BATCH else 1
        self.counts[_SUBMITTED] += calls
        pending = self.client.invoke_async(name, **args)
        # Fires on whichever thread delivers the response (or right here,
        # if it already landed).
        pending.add_done_callback(partial(self.deliver, loop, future, calls))
        deadline = loop.time() + timeout
        entry = (deadline, weakref.ref(future), pending, name, timeout, calls)
        queue = self._deadlines
        if queue and deadline < queue[-1][0]:
            # A shorter timeout than one queued before it: its own timer.
            loop.call_at(deadline, self._expire, entry)
        else:
            while queue and self._owed(queue[0]) is None:
                queue.popleft()
            queue.append(entry)
            if not self._armed:
                self._armed = True
                loop.call_at(queue[0][0], self._expire_front, loop)
        return future

    @staticmethod
    def _owed(entry):
        """The future ``entry`` still owes an answer to, or ``None``.

        The router's waiter slot holds the future (through the callback)
        until it is answered or discarded, so one that is gone was
        answered; one that was cancelled (its handler was: the client
        went away) still has its waiter registered, dropped here.
        """
        future = entry[1]()
        if future is None:
            return None
        if future.cancelled():
            entry[2].discard()
        return None if future.done() else future

    def _expire(self, entry):
        """``entry``'s deadline passed: if still unanswered, fail it."""
        future = self._owed(entry)
        if future is None:
            return
        _deadline, _ref, pending, name, timeout, calls = entry
        pending.discard()
        self.counts[_TIMED_OUT] += calls
        future.set_exception(BackendTimeout(name, timeout))
        # Accounted for above; a caller that is no longer there to see it
        # (cancelled, or already failed on an earlier command of its
        # batch) must not read as a lost exception in asyncio's log.
        future.exception()

    def _expire_front(self, loop):
        """The armed timer: fail what is overdue, re-arm for what is not."""
        queue = self._deadlines
        now = loop.time()
        while queue and (queue[0][0] <= now or self._owed(queue[0]) is None):
            self._expire(queue.popleft())  # does nothing to an answered one
        if queue:
            loop.call_at(queue[0][0], self._expire_front, loop)
        else:
            self._armed = False

    def deliver(self, loop, future, calls, response):
        """Any thread: resolve at once on ``loop`` itself; elsewhere file
        the response and wake ``loop`` if nobody has."""
        if _get_running_loop() is loop:
            if not future.done():
                future.set_result(response)
                self.counts[_COMPLETED] += calls
            return
        with self._lock:
            wake = not self._inbox  # non-empty: a drain is already due
            self._inbox.append((future, response, calls))
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
        for future, response, calls in landed:
            if not future.done():
                future.set_result(response)
                self.counts[_COMPLETED] += calls


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
        #: Every port's counters, kept after the port died with its loop
        #: (three integers per loop ever served) so totals stay exact.
        self._counts = []

    # ------------------------------------------------------------------
    def _new_port(self, loop):
        with self._ports_lock:
            port = self._ports.get(loop)
            if port is None:
                counts = [0, 0, 0]
                self._counts.append(counts)
                port = self._ports[loop] = _LoopPort(self.cluster.client(), counts)
            return port

    def submit(self, name, timeout=None, **args):
        """Multicast ``name(**args)`` now; return the future of its first response.

        Not a coroutine: the command is on its way when this returns, so
        a caller pipelines by submitting in a loop and awaiting later.
        The future fails with :class:`BackendTimeout` when no replica
        answers in time — after discarding the invocation, so nothing
        leaks.  Must be called on a running event loop's thread.
        """
        if timeout is None:
            timeout = self.default_timeout
        loop = asyncio.get_running_loop()
        port = self._ports.get(loop) or self._new_port(loop)
        return port.submit(loop, name, timeout, args)

    def submit_batch(self, calls, timeout=None):
        """Multicast ``(name, args)`` calls now; return the awaitable of
        their answers, ``[(value, error), ...]`` in call order.

        The C-G function packs the calls into batches
        (:meth:`~repro.core.cg.CGFunction.batches`), and each batch goes
        through :meth:`submit` — one command, one future and one deadline
        — as a :data:`~repro.core.command.BATCH` command, or as the plain
        command when it holds one call.  Every batch is on its way when
        this returns.  Awaiting it raises :class:`BackendTimeout` when any
        batch went unanswered; :meth:`stats` counts calls.
        """
        parts = []
        for indices in self.cluster.cg.batches(calls):
            if len(indices) == 1:
                name, args = calls[indices[0]]
                answer = self.submit(name, timeout, **args)
            else:
                batch = [calls[index] for index in indices]
                answer = self.submit(BATCH, timeout, calls=batch)
            # A bridge may wrap ``submit`` in a coroutine (the benchmark's
            # tracer does): only as a task is that on its way now, too.
            parts.append((indices, asyncio.ensure_future(answer)))
        return self._answers(len(calls), parts)

    @staticmethod
    async def _answers(count, parts):
        answers = [None] * count
        for indices, future in parts:
            response = await future
            if len(indices) == 1:
                answers[indices[0]] = (response.value, response.error)
            elif response.error is not None:
                # The batch as a whole failed (its answer could not
                # travel): so did each of its calls.
                for index in indices:
                    answers[index] = (None, response.error)
            else:
                for index, answer in zip(indices, response.value):
                    answers[index] = answer
        return answers

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
        totals = [sum(column) for column in zip(*self._counts)] or [0, 0, 0]
        return dict(zip(("submitted", "completed", "timed_out"), totals))

    @property
    def timed_out(self):
        return self.stats()["timed_out"]
