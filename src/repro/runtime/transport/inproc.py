"""The receiving end every replica runs, and the in-process transport.

:class:`ReplicaInbox` is what a replica does with its ordered stream, in
both runtimes: reassemble the link-sequenced copies (possibly duplicated
or reordered on the way) through one
:class:`~repro.common.faults.ReliableLink`, file each released item with
the workers that deliver its destinations — thread ``t_i`` delivers
``g_i`` and ``g_all``, so which workers take a message depends on its
destinations alone — and hand each worker its run with one ``put_many``
(one wake-up).  A replica process feeds it the ``d`` frames of one
socket read; :class:`InprocTransport` feeds it what the pump writes.

:class:`InprocTransport` is the threaded runtime's transport.  Without a
fault plane an ordered item is put on the delivering workers' queues of
every registered replica inline, under the sequencer lock.  With one, it
takes the process runtime's path minus the socket: ``send`` plans the
copies per replica, the :class:`~repro.runtime.transport.pump.FramePump`
holds them until they are due and writes each replica's run into its
inbox.
"""

import collections
import queue
import threading

from repro.common.codec import Memo
from repro.common.faults import ReliableLink
from repro.multicast.group import GroupLayout
from repro.runtime.transport.pump import FramePump, Link


class DeliveryQueue:
    """A worker thread's delivery queue, drainable in batches.

    ``queue.Queue`` costs one lock round-trip per item on both sides; the
    hot path instead drains *everything available* (up to ``max_items``)
    in a single :meth:`get_batch` acquisition, which is where the threaded
    runtime's batched-delivery speedup comes from.  Semantics are otherwise
    those of an unbounded FIFO queue.
    """

    def __init__(self):
        self._items = collections.deque()
        self._cond = threading.Condition()

    def put(self, item):
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def put_many(self, items):
        with self._cond:
            self._items.extend(items)
            self._cond.notify_all()

    def get_batch(self, max_items):
        """Block until items are available; return up to ``max_items`` of them."""
        with self._cond:
            self._cond.wait_for(lambda: self._items)
            items = self._items
            if len(items) <= max_items:
                batch = list(items)
                items.clear()
            else:
                batch = [items.popleft() for _ in range(max_items)]
            return batch

    def get_nowait(self):
        """Return one item without blocking; raise ``queue.Empty`` when empty."""
        with self._cond:
            if not self._items:
                raise queue.Empty
            return self._items.popleft()

    def qsize(self):
        with self._cond:
            return len(self._items)

    def empty(self):
        with self._cond:
            return not self._items


class ReplicaInbox:
    """One replica's receiving end: ``queues`` (thread index -> its
    :class:`DeliveryQueue`) behind a :class:`ReliableLink`.

    :meth:`accept` files ``(link sequence, (sequence, destinations,
    payload))`` pairs — what the link releases joins the run of each
    delivering worker — and :meth:`flush` hands the runs over.  Not
    thread-safe: one thread feeds an inbox (the replica's receive loop,
    or the pump).
    """

    def __init__(self, mpl):
        self.queues = {index: DeliveryQueue() for index in range(1, mpl + 1)}
        self.link = ReliableLink()
        #: destinations -> the indices of the workers that deliver them
        #: (a multi-group message travels on ``g_all``: every worker).
        self.threads_for = Memo(GroupLayout(mpl).delivering_threads)
        # Items released since the last flush, per thread index.
        self._run = [[] for _ in range(mpl + 1)]

    def accept(self, pairs):
        accept, threads_for, run = self.link.accept, self.threads_for, self._run
        for link_sequence, item in pairs:
            for released in accept(link_sequence, item):
                for index in threads_for[released[1]]:
                    run[index].append(released)

    def flush(self):
        """One ``put_many`` (one wake-up) per worker with a run."""
        for index, items in enumerate(self._run):
            if items:
                self.queues[index].put_many(items)
                items.clear()

    def pending(self):
        """Items queued for the workers plus copies parked in reassembly."""
        return sum(q.qsize() for q in self.queues.values()) + self.link.pending()


class InprocTransport:
    """In-process delivery: direct queue puts, or the pump when a
    :class:`~repro.common.faults.FaultPlane` is attached.  Each replica
    is then one link — one planned delivery per replica per message, in
    ascending replica order (so the plane's RNG draws line up across
    replays of the same ordered-message sequence, and with the process
    runtime), its threads sharing the planned copies like one connection
    per peer.  The sequencer calls every method but :meth:`pending` under
    its lock."""

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
            # queues, on the link sequences the pump then continues from.
            inbox.accept(enumerate(replay))
            inbox.flush()
            link.sequence = len(replay)
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
        """Pump thread: a replica's run, into its inbox."""
        link.sink.accept(items)
        link.sink.flush()

    def pending(self, replica_id=None):
        """Items no worker has taken yet: queued, held by the pump or
        parked in reassembly."""
        return sum(
            link.in_flight + link.sink.pending()
            for key, link in self._links.items()
            if replica_id in (None, key)
        )

    def shutdown(self):
        """Stop the pump, then a poison pill to every registered worker."""
        self.close()
        for link in self._links.values():
            for delivery_queue in link.sink.queues.values():
                delivery_queue.put(None)

    def close(self):
        if self.pump is not None:
            self.pump.close()
