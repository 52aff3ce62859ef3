"""The frame pump: the one place an ordered item waits or moves.

Both transports hand every item they do not deliver inline to one
:class:`FramePump` — one outbox, emptied by passes that the process's
I/O loop (:mod:`repro.runtime.ioloop`) runs — and get it back, per link,
through their ``write(link, items)``.  The way in follows the rule of
the whole burst path: append to the outbox, schedule a pass only if
none is pending, the pass takes everything that accumulated.  No timer,
no linger: a lone item leaves on the loop's next pass, and everything
posted while the loop ran its other callbacks — every multicast of the
HTTP requests it just served — costs one pass and one ``write`` per
link.  One outbox is also one FIFO per link — a control frame never
overtakes the items posted before it, which quiescence relies on.

Fault injection happens here, per link and in posting order, as on the
TCP connection or the in-process hand-off under it: ``send`` asked the
plane for each item's delay (``plan_delivery``, on the calling thread);
the pump parks a late item, and every item posted behind it on its link,
in the link's ``held`` queue, and releases that queue's head once it is
due — an item is never due before the one posted ahead of it.  A pass
that leaves items held arms one loop timer (``call_at``) for the
earliest of them.  A partitioned link keeps its whole queue until the
heal (a partition is latency, not loss), and an item whose link's
generation moved on is dropped instead of written.  So ``write`` sees
each link's items once, in the order they were posted, whatever the
plane does.
"""

import threading
from collections import deque

from repro.runtime import ioloop


class Link:
    """What the pump keeps per link: the ``generation`` that
    :meth:`FramePump.void` bumps so that items posted before it are
    dropped instead of written, this generation's items ``in_flight``,
    i.e. not yet handed to ``write``, and the items ``held`` back by the
    pump, ``(due, generation, payload)`` in posting order.  ``node`` is
    the link's name on the fault plane, ``sink`` whatever the transport's
    ``write`` needs to reach the other end."""

    __slots__ = ("node", "sink", "generation", "in_flight", "held")

    def __init__(self, node, sink):
        self.node = node
        self.sink = sink
        self.generation = 0
        self.in_flight = 0
        self.held = deque()


class FramePump:
    """Posted items, moved to ``write(link, items)`` by loop passes.

    ``write`` runs on the I/O loop's thread, once per link per pass, with
    the link's surviving payloads in the order they were posted; it must
    not raise or block.  ``plane`` is the optional
    :class:`~repro.common.faults.FaultPlane` whose partitions hold a
    link's items back.
    """

    def __init__(self, write, plane=None):
        self.write = write
        self.plane = plane
        self._loop = ioloop.loop()
        # Guards the outbox, ``_scheduled``, ``_closed`` and every link's
        # generation and in-flight count: ``post`` and ``void`` come from
        # any thread.
        self._lock = threading.Lock()
        self._outbox = []  # (link, generation, payload, delay)
        self._scheduled = False  # a pass is queued on the loop
        self._closed = False
        # Loop thread only: the links with items held, and the timer
        # armed for the earliest of them.
        self._holding = set()
        self._timer = None

    def post(self, entries):
        """Queue ``(link, payload, delay)`` entries, in order: the item's
        extra latency in seconds, or ``None`` for a control frame — at
        once, outside generations, partitions, the link's held queue and
        the in-flight count.  Generation and increment are taken under
        the lock :meth:`void` holds, so an item only ever decrements the
        count it incremented."""
        if not entries:
            return
        with self._lock:
            if self._closed:
                return
            outbox = self._outbox
            for link, payload, delay in entries:
                if delay is None:
                    outbox.append((link, None, payload, 0.0))
                    continue
                outbox.append((link, link.generation, payload, delay))
                link.in_flight += 1
            wake = not self._scheduled
            self._scheduled = True
        if wake:
            self._wake()

    def _wake(self):
        """Queue one pass on the loop."""
        ioloop.soon(self._pass, True)

    def void(self, link):
        """Drop every item still on its way to ``link``: its registration
        or connection is gone."""
        with self._lock:
            link.generation += 1
            link.in_flight = 0

    def close(self):
        """Stop moving items; what is still queued or held is dropped
        (idempotent).  It never waits for the loop — the caller may hold
        a lock that a request the loop serves is waiting for — yet no
        ``write`` starts after it returns, and a callback the caller
        schedules on the loop (:func:`ioloop.soon`) after it runs after
        the last ``write`` has ended."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        ioloop.soon(self._stop)

    def _stop(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for link in self._holding:
            link.held.clear()
        self._holding.clear()

    def _pass(self, queued=False):
        """Loop thread: move what is due.  ``queued`` is the pass a post
        scheduled (it re-opens scheduling); a timer's pass takes the
        outbox too, and leaves the queued one to find it empty."""
        with self._lock:
            if self._closed:
                return
            entries, self._outbox = self._outbox, []
            if queued:
                self._scheduled = False
        plane, holding = self.plane, self._holding
        now = self._loop.time()
        ready = {}  # link -> payloads, in posting order
        handed = {}  # link -> the generation of its ordered payloads
        controls = {}  # link -> how many of them are control frames
        severed = set()  # held links a partition holds in this pass
        # Held items first: they were posted before these entries.
        for link in list(holding):
            held = link.held
            while held and held[0][1] != link.generation:
                held.popleft()  # voided: a prefix, posted before it
            if held and plane is not None and plane.is_blocked("order", link.node):
                plane.note_blocked_retry()
                severed.add(link)
                continue
            while held and held[0][0] <= now:
                _due, generation, payload = held.popleft()
                ready.setdefault(link, []).append(payload)
                handed[link] = generation
            if not held:
                holding.discard(link)
        for link, generation, payload, delay in entries:
            if generation is None:
                ready.setdefault(link, []).append(payload)
                controls[link] = controls.get(link, 0) + 1
                continue
            if generation != link.generation:
                continue  # voided before this pass
            held = link.held
            if not held and delay <= 0:
                if plane is None or not plane.is_blocked("order", link.node):
                    ready.setdefault(link, []).append(payload)
                    handed[link] = generation
                    continue
                severed.add(link)
            # Behind what is held: never due before it.
            due = now + delay
            if held and held[-1][0] > due:
                due = held[-1][0]
            held.append((due, generation, payload))
            holding.add(link)
        if holding or self._timer is not None:
            self._arm(now, severed)
        for link, items in ready.items():
            self.write(link, items)
        # Only now: ``in_flight == 0`` must mean "handed over".
        if handed:
            with self._lock:
                for link, generation in handed.items():
                    if generation == link.generation:
                        link.in_flight -= (
                            len(ready[link]) - controls.get(link, 0)
                        )

    def _arm(self, now, severed):
        """One timer for when a held item may next move: its due time, or
        a retransmit backoff from now while a partition holds its link."""
        wake_at = None
        for link in self._holding:
            due = (
                now + self.plane.retransmit_backoff if link in severed
                else link.held[0][0]
            )
            if wake_at is None or due < wake_at:
                wake_at = due
        timer = self._timer
        if timer is not None:
            if wake_at is not None and timer.when() == wake_at:
                return
            timer.cancel()
        self._timer = (
            None if wake_at is None
            else self._loop.call_at(wake_at, self._fire)
        )

    def _fire(self):
        self._timer = None
        self._pass()
