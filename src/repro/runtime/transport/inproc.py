"""The receiving end every replica runs, and the in-process transport.

A delivered command that a worker runs waits in the worker's
:class:`DeliveryQueue`: a ``queue.SimpleQueue``, so the put, the
worker's wait and its wake-up all run in C, with no Python-level lock
between the sender and the worker.

:class:`ReplicaInbox` is what a replica does with its ordered stream, in
both runtimes: file each arriving item — its link hands them over once
and in order — with the workers that deliver its destinations (thread
``t_i`` delivers ``g_i`` and ``g_all``, so which workers take a message
depends on its destinations alone) and hand each worker its run in
thread order.  By default a run is one ``put_many`` (one wake-up).  A
replica process feeds the inbox the ``d`` frames of one socket read and,
once its workers start, hands each run to
:meth:`~repro.runtime.engine.ReplicaEngine.deliver` instead, which runs
an idle worker's leading single-group commands on the receive loop and
queues the rest.  :class:`InprocTransport` feeds its inboxes what the
pump writes, and they keep ``put_many``: their feeders must not run
service code.

:class:`InprocTransport` is the threaded runtime's transport.  Without a
fault plane an ordered item is put on the delivering workers' queues of
every registered replica inline, under the sequencer lock.  With one, it
takes the process runtime's path minus the socket: ``send`` plans each
replica's delay, the :class:`~repro.runtime.transport.pump.FramePump`
holds the items until they are due, in order per replica, and its passes
on the process's I/O loop write each replica's run into its inbox.
Without one the loop is never started.
"""

import queue
from collections import deque
from itertools import islice

from repro.common.codec import Memo
from repro.multicast.group import GroupLayout
from repro.runtime import ioloop
from repro.runtime.transport.pump import FramePump, Link

#: A sentinel no queue ever holds.
_NEVER = object()


def _stop_workers(queues):
    """A poison pill to each worker queue."""
    for delivery_queue in queues:
        delivery_queue.put(None)


class DeliveryQueue:
    """A worker thread's delivery queue: an unbounded FIFO, drained in batches.

    It wraps a ``queue.SimpleQueue``, whose ``put``, ``get``,
    ``get_nowait``, ``qsize`` and ``empty`` are C functions: handing a
    command to a worker runs no Python-level lock, and a worker blocked in
    :meth:`get_batch` waits on a C lock with the GIL released.  ``put``,
    ``get_nowait``, ``qsize`` and ``empty`` *are* the ``SimpleQueue``'s
    bound methods.  ``None`` is the stop pill, queued like any item.

    Each queue has exactly one consumer, its worker.  That is what makes
    :meth:`get_batch` exact: no other thread can take the items
    ``qsize()`` counted before ``get_nowait`` does.
    """

    def __init__(self):
        items = queue.SimpleQueue()
        self.put = items.put
        self.get_nowait = items.get_nowait
        self.qsize = items.qsize
        self.empty = items.empty
        self._get = items.get

    def put_many(self, items):
        """Queue a run in order, with one wake-up: only the first ``put``
        releases a blocked worker's lock.  The puts are driven from C (an
        empty ``deque`` consumes the ``map``), so for a list no bytecode
        runs between them and the GIL cannot pass to the woken worker
        before the whole run is queued."""
        deque(map(self.put, items), 0)

    def get_batch(self, max_items):
        """Block until an item is queued; return it and up to
        ``max_items - 1`` more that are already queued, in order."""
        batch = [self._get()]
        more = min(self.qsize(), max_items - 1)
        if more > 0:
            # ``iter(get_nowait, sentinel)`` calls it from C.  The sentinel
            # is not ``None``, which is the stop pill; ``qsize()`` counted
            # the items there are to take.
            batch += islice(iter(self.get_nowait, _NEVER), more)
        return batch


class ReplicaInbox:
    """One replica's receiving end: ``queues``, thread index -> its
    :class:`DeliveryQueue`.

    :meth:`accept` files ``(sequence, destinations, payload)`` items in
    their delivery order — each joins the run of every worker that
    delivers it — and :meth:`flush` hands the runs over.  Not
    thread-safe: one thread feeds an inbox (the replica's receive loop,
    or the pump's passes on the I/O loop).
    """

    def __init__(self, mpl):
        self.queues = {index: DeliveryQueue() for index in range(1, mpl + 1)}
        #: destinations -> the indices of the workers that deliver them
        #: (a multi-group message travels on ``g_all``: every worker).
        self.threads_for = Memo(GroupLayout(mpl).delivering_threads)
        # Items released since the last flush, per thread index.
        self._run = [[] for _ in range(mpl + 1)]
        #: ``hand(index, run)`` gives worker ``index`` its run: a
        #: ``put_many``, until a replica process rebinds it to
        #: :meth:`~repro.runtime.engine.ReplicaEngine.deliver` as its
        #: workers start.
        self.hand = self._put

    def _put(self, index, run):
        self.queues[index].put_many(run)

    def accept(self, items):
        threads_for, run = self.threads_for, self._run
        for item in items:
            for index in threads_for[item[1]]:
                run[index].append(item)

    def flush(self):
        """Hand each worker with a run that run, in thread order: one
        ``put_many`` (one wake-up) each, unless :attr:`hand` runs some of
        it first."""
        hand = self.hand
        for index, items in enumerate(self._run):
            if items:
                hand(index, items)
                items.clear()

    def pending(self):
        """Items queued for the workers."""
        return sum(q.qsize() for q in self.queues.values())


class InprocTransport:
    """In-process delivery: direct queue puts, or the pump when a
    :class:`~repro.common.faults.FaultPlane` is attached.  Each replica
    is then one link — one planned delivery per replica per message, in
    ascending replica order (so the plane's RNG draws line up across
    replays of the same ordered-message sequence, and with the process
    runtime), its threads sharing it like one connection per peer.  The
    sequencer calls every method but :meth:`pending` under its lock."""

    #: Commands travel by reference: nothing leaves the process.
    carries_bytes = False

    def __init__(self, mpl, fault_plane=None):
        self.mpl = mpl
        self.fault_plane = fault_plane
        # replica_id -> Link whose sink is the replica's inbox, in
        # ascending replica order; replaced whole on every (un)registration.
        self._links = {}
        # destinations -> every registered worker queue delivering them.
        self._targets = Memo(self._targets_of)
        self.pump = (
            FramePump(self._write, fault_plane)
            if fault_plane is not None else None
        )

    def on_replica_registered(self, replica_id, replay):
        """Build the replica's inbox; return its worker queues."""
        inbox = ReplicaInbox(self.mpl)
        link = Link(f"replica{replica_id}", inbox)
        if replay:
            # A local handover, not network traffic: straight into the
            # queues, ahead of whatever the pump writes next.
            inbox.accept(replay)
            inbox.flush()
        self._links = dict(sorted({**self._links, replica_id: link}.items()))
        self._targets.clear()
        return inbox.queues

    def on_replica_unregistered(self, replica_id):
        links = dict(self._links)
        link = links.pop(replica_id, None)
        self._links = links
        self._targets.clear()
        if link is not None and self.pump is not None:
            self.pump.void(link)

    def _targets_of(self, destinations):
        return [
            link.sink.queues[index]
            for link in self._links.values()
            for index in link.sink.threads_for[destinations]
        ]

    def send(self, item):
        if self.pump is None:
            for delivery_queue in self._targets[item[1]]:
                delivery_queue.put(item)
            return
        plan = self.fault_plane.plan_delivery
        self.pump.post(
            [(link, item, plan("order", link.node)) for link in self._links.values()]
        )

    @staticmethod
    def _write(link, items):
        """Loop thread (a pump pass): a replica's run, into its inbox."""
        link.sink.accept(items)
        link.sink.flush()

    def pending(self, replica_id=None):
        """Items no worker has taken yet: queued or held by the pump."""
        return sum(
            link.in_flight + link.sink.pending()
            for key, link in self._links.items()
            if replica_id in (None, key)
        )

    def shutdown(self):
        """Stop the pump, then a poison pill to every registered worker.
        With a pump the pills are put from the loop, behind the pump's
        last write, and nothing here waits for it: the sequencer lock is
        held, and a request the loop serves may be waiting for it."""
        self.close()
        queues = [
            delivery_queue for link in self._links.values()
            for delivery_queue in link.sink.queues.values()
        ]
        if self.pump is None:
            _stop_workers(queues)
        else:
            ioloop.soon(_stop_workers, queues)

    def close(self):
        if self.pump is not None:
            self.pump.close()
