"""The frame pump: the one place an ordered item waits or moves.

Both transports hand every item they do not deliver inline to one
:class:`FramePump` — one thread, one outbox, one time-ordered heap — and
get it back, per link, through their ``write(link, items)``.  The way in
follows the rule of the whole burst path: append to the outbox, wake the
consumer only if no wake-up is pending, the consumer takes everything
that accumulated.  No timer, no linger: a lone item leaves at once, a
pipelined burst costs one wake-up and one ``write`` per link.  One
outbox is also one FIFO per link — a control frame never overtakes the
items posted before it, which quiescence relies on.

Fault injection happens here, per copy: ``send`` asked the plane for
each copy's delay (``plan_delivery``, on the calling thread); the pump
parks the delayed ones and, when a copy is due, drops it if its link's
generation moved on and re-parks it ``retransmit_backoff`` later while
its link is partitioned — a partition is latency, not loss.  Duplicated
and reordered copies are repaired behind ``write`` by the replica's
:class:`~repro.runtime.transport.inproc.ReplicaInbox` (its
:class:`~repro.common.faults.ReliableLink`): in the replica process at
the far end of a socket, or written into directly in-process.
"""

import heapq
import itertools
import threading
import time

#: The delays of an item nothing holds back: one copy, at once.
NOW = (0.0,)


class Link:
    """What the pump keeps per link: the ``sequence`` of the next item
    posted to it (the receiver's ``ReliableLink`` releases in that order),
    the ``generation`` that :meth:`FramePump.void` bumps so that copies
    posted before it are dropped instead of written, and this
    generation's copies ``in_flight``, i.e. not yet handed to ``write``.
    ``node`` is the link's name on the fault plane, ``sink`` whatever the
    transport's ``write`` needs to reach the other end."""

    __slots__ = ("node", "sink", "sequence", "generation", "in_flight")

    def __init__(self, node, sink):
        self.node = node
        self.sink = sink
        self.sequence = 0
        self.generation = 0
        self.in_flight = 0


class FramePump:
    """One thread moving posted items to ``write(link, items)``.

    ``write`` runs on the pump thread, once per link per burst, with the
    link's surviving ``(link sequence, payload)`` pairs in the order they
    were posted (sequence ``None`` for a control frame); it must not
    raise.  ``plane`` is the optional
    :class:`~repro.common.faults.FaultPlane` consulted when a copy is due.
    """

    def __init__(self, write, plane=None):
        self.write = write
        self.plane = plane
        self._cond = threading.Condition()
        self._outbox = []  # (link, generation, (sequence, payload), delays)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="psmr-pump", daemon=True
        )
        self._thread.start()

    def post(self, entries):
        """Queue ``(link, payload, delays)`` entries, in order: one
        arrival delay per copy, or ``None`` for a control frame — one
        copy, at once, outside link sequencing, generations, partitions
        and the in-flight count.  Sequence, generation and increment are
        taken under the lock :meth:`void` holds, so a copy only ever
        decrements the count it incremented."""
        with self._cond:
            outbox = self._outbox
            wake = not outbox  # non-empty: the pump is already due here
            for link, payload, delays in entries:
                if delays is None:
                    outbox.append((link, None, (None, payload), NOW))
                    continue
                outbox.append(
                    (link, link.generation, (link.sequence, payload), delays)
                )
                link.sequence += 1
                link.in_flight += len(delays)
            if wake:
                self._cond.notify()

    def void(self, link):
        """Drop every copy still on its way to ``link``: its registration
        or connection is gone, and link sequences restart at zero."""
        with self._cond:
            link.generation += 1
            link.sequence = 0
            link.in_flight = 0

    def close(self):
        """Stop the thread; what is still parked is dropped (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join(timeout=5.0)

    def _run(self):
        cond, plane = self._cond, self.plane
        heap = []  # (due, tiebreak, link, generation, item): this thread's
        tiebreak = itertools.count()

        def park(due, copy):
            heapq.heappush(heap, (due, next(tiebreak), *copy))

        while True:
            with cond:
                while not self._outbox and not self._closed:
                    timeout = heap[0][0] - time.monotonic() if heap else None
                    if not cond.wait(timeout):
                        break  # the earliest parked copy is due
                if self._closed:
                    return
                entries, self._outbox = self._outbox, []
            now = time.monotonic()
            due = []
            while heap and heap[0][0] <= now:
                due.append(heapq.heappop(heap)[2:])
            for link, generation, item, delays in entries:
                for delay in delays:
                    if delay > 0:
                        park(now + delay, (link, generation, item))
                    else:
                        due.append((link, generation, item))
            ready = {}  # link -> items, in outbox (= per-link FIFO) order
            settled = []  # the copies leaving the pump in this pass
            for copy in due:
                link, generation, item = copy
                if generation is not None:
                    if generation != link.generation:
                        continue
                    if plane is not None and plane.is_blocked("order", link.node):
                        # Re-park without touching the in-flight count, so
                        # drain checks keep waiting for the heal.
                        plane.note_blocked_retry()
                        park(now + plane.retransmit_backoff, copy)
                        continue
                    settled.append(copy)
                ready.setdefault(link, []).append(item)
            for link, items in ready.items():
                self.write(link, items)
            # Only now: ``in_flight == 0`` must mean "handed over".
            if settled:
                with cond:
                    for link, generation, _item in settled:
                        if generation == link.generation:
                            link.in_flight -= 1
