"""The frame pump: the one place an ordered item waits or moves.

Both transports hand every item they do not deliver inline to one
:class:`FramePump` — one thread, one outbox — and get it back, per link,
through their ``write(link, items)``.  The way in follows the rule of
the whole burst path: append to the outbox, wake the consumer only if no
wake-up is pending, the consumer takes everything that accumulated.  No
timer, no linger: a lone item leaves at once, a pipelined burst costs
one wake-up and one ``write`` per link.  One outbox is also one FIFO per
link — a control frame never overtakes the items posted before it,
which quiescence relies on.

Fault injection happens here, per link and in posting order, as on the
TCP connection or the in-process hand-off under it: ``send`` asked the
plane for each item's delay (``plan_delivery``, on the calling thread);
the pump parks a late item, and every item posted behind it on its link,
in the link's ``held`` queue, and releases that queue's head once it is
due — an item is never due before the one posted ahead of it.  A
partitioned link keeps its whole queue until the heal (a partition is
latency, not loss), and an item whose link's generation moved on is
dropped instead of written.  So ``write`` sees each link's items once,
in the order they were posted, whatever the plane does.
"""

import threading
import time
from collections import deque


class Link:
    """What the pump keeps per link: the ``generation`` that
    :meth:`FramePump.void` bumps so that items posted before it are
    dropped instead of written, this generation's items ``in_flight``,
    i.e. not yet handed to ``write``, and the items ``held`` back on the
    pump thread, ``(due, generation, payload)`` in posting order.
    ``node`` is the link's name on the fault plane, ``sink`` whatever the
    transport's ``write`` needs to reach the other end."""

    __slots__ = ("node", "sink", "generation", "in_flight", "held")

    def __init__(self, node, sink):
        self.node = node
        self.sink = sink
        self.generation = 0
        self.in_flight = 0
        self.held = deque()


class FramePump:
    """One thread moving posted items to ``write(link, items)``.

    ``write`` runs on the pump thread, once per link per burst, with the
    link's surviving payloads in the order they were posted; it must not
    raise.  ``plane`` is the optional
    :class:`~repro.common.faults.FaultPlane` whose partitions hold a
    link's items back.
    """

    def __init__(self, write, plane=None):
        self.write = write
        self.plane = plane
        self._cond = threading.Condition()
        self._outbox = []  # (link, generation, payload, delay)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="psmr-pump", daemon=True
        )
        self._thread.start()

    def post(self, entries):
        """Queue ``(link, payload, delay)`` entries, in order: the item's
        extra latency in seconds, or ``None`` for a control frame — at
        once, outside generations, partitions, the link's held queue and
        the in-flight count.  Generation and increment are taken under
        the lock :meth:`void` holds, so an item only ever decrements the
        count it incremented."""
        with self._cond:
            outbox = self._outbox
            wake = not outbox  # non-empty: the pump is already due here
            for link, payload, delay in entries:
                if delay is None:
                    outbox.append((link, None, payload, 0.0))
                    continue
                outbox.append((link, link.generation, payload, delay))
                link.in_flight += 1
            if wake:
                self._cond.notify()

    def void(self, link):
        """Drop every item still on its way to ``link``: its registration
        or connection is gone."""
        with self._cond:
            link.generation += 1
            link.in_flight = 0

    def close(self):
        """Stop the thread; what is still held is dropped (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join(timeout=5.0)

    def _run(self):
        cond, plane = self._cond, self.plane
        holding = set()  # the links with items held (this thread's)
        wake_at = None  # when a held item may next move
        while True:
            with cond:
                while not self._outbox and not self._closed:
                    timeout = None if wake_at is None else wake_at - time.monotonic()
                    if not cond.wait(timeout):
                        break  # a held item may be due
                if self._closed:
                    return
                entries, self._outbox = self._outbox, []
            now = time.monotonic()
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
            wake_at = None
            for link in holding:
                due = (
                    now + plane.retransmit_backoff if link in severed
                    else link.held[0][0]
                )
                if wake_at is None or due < wake_at:
                    wake_at = due
            for link, items in ready.items():
                self.write(link, items)
            # Only now: ``in_flight == 0`` must mean "handed over".
            if handed:
                with cond:
                    for link, generation in handed.items():
                        if generation == link.generation:
                            link.in_flight -= (
                                len(ready[link]) - controls.get(link, 0)
                            )
