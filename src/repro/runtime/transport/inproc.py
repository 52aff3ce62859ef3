"""In-process transport: per-thread delivery queues.

This is the threaded runtime's transport.  Without a fault plane an
ordered item is put on every subscribed worker's
:class:`DeliveryQueue` inline, under the sequencer lock.  With one, it
takes the process runtime's path minus the socket: ``send`` plans the
copies per replica, the :class:`~repro.runtime.transport.pump.FramePump`
holds them until they are due, and ``write`` does what a replica process
does with the ``d`` frames of one read — reassemble through the
replica's :class:`~repro.common.faults.ReliableLink`, then one
``put_many`` (one wake-up) per worker queue.
"""

import collections
import queue
import threading

from repro.common.faults import ReliableLink
from repro.runtime.transport.base import Transport
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


class InprocTransport(Transport):
    """In-process delivery: direct queue puts, or the pump when a
    :class:`~repro.common.faults.FaultPlane` is attached.  Each replica
    is then one link — one planned delivery per replica per message, in
    ascending replica order (so the plane's RNG draws line up across
    replays of the same ordered-message sequence, and with the process
    runtime), its threads sharing the planned copies like one connection
    per peer."""

    def __init__(self, fault_plane=None):
        self.fault_plane = fault_plane
        # replica_id -> Link whose sink is the registration's ReliableLink;
        # stays empty without a plane.
        self._links = {}
        self.pump = (
            FramePump(self._write, fault_plane)
            if fault_plane is not None else None
        )

    def open_endpoint(self, replica_id, thread_index):
        return DeliveryQueue()

    def on_replica_registered(self, replica_id, endpoints, replay):
        # The replayed suffix bypasses the pump deliberately — recovery
        # replay is a local handover, not network traffic.
        if replay is not None:
            for thread_index, endpoint in endpoints.items():
                endpoint.put_many(
                    (sequence, destinations, payload)
                    for sequence, destinations, threads, payload in replay
                    if thread_index in threads
                )
        if self.pump is not None:
            self._links[replica_id] = Link(
                f"replica{replica_id}", ReliableLink()
            )

    def on_replica_unregistered(self, replica_id, endpoints):
        link = self._links.pop(replica_id, None)
        if link is not None:
            self.pump.void(link)

    def send(self, route, item):
        if self.pump is None:
            for endpoint in route.flat:
                endpoint.put(item)
            return
        plan, links = self.fault_plane.plan_delivery, self._links
        entries = []
        for replica_id, targets in route.grouped:
            link = links[replica_id]
            entries.append((link, (targets, item), plan("order", link.node)))
        self.pump.post(entries)

    def _write(self, link, items):
        """Pump thread: what ``replica_proc``'s ``accept_deliver`` and
        ``flush_run`` do with the ``d`` frames of one read."""
        run = {}  # worker queue -> the items released to it, in order
        for sequence, parcel in items:
            for targets, item in link.sink.accept(sequence, parcel):
                for _thread_index, endpoint in targets:
                    run.setdefault(endpoint, []).append(item)
        for endpoint, released in run.items():
            endpoint.put_many(released)

    def in_flight(self, replica_id=None):
        """Copies the pump still holds plus items parked in reassembly."""
        return sum(
            link.in_flight + link.sink.pending()
            for key, link in list(self._links.items())
            if replica_id in (None, key)
        )

    def shutdown(self, endpoints):
        self.close()
        for endpoint in endpoints.values():
            endpoint.put(None)

    def close(self):
        if self.pump is not None:
            self.pump.close()
