"""Transport interface between the ordered-multicast core and replicas.

The sequencer core (:class:`repro.runtime.multicast.LocalAtomicMulticast`)
owns ordering, the retained log and registration; a :class:`Transport`
owns *delivery*: moving each ordered item from the sequencer to the
delivery endpoints of every subscribed worker thread.  Two
implementations exist:

* :class:`repro.runtime.transport.inproc.InprocTransport` — in-process
  per-thread :class:`DeliveryQueue`, filled inline.  This is the
  threaded runtime's transport.
* :class:`repro.runtime.transport.tcp.TcpCoordinatorTransport` — real
  sockets: one TCP connection per replica *process*, length-prefixed
  CRC-framed messages.

With a :class:`~repro.common.faults.FaultPlane` both hand their items to
the one :class:`~repro.runtime.transport.pump.FramePump`, which applies
it per link (a replica is one link in either); the TCP transport's
frames take the pump with or without a plane.

Threading contract: the core invokes every method below while holding
its sequencer lock, so implementations see registration changes and
sends fully serialised and must not call back into the core.
"""


class TransportRoute:
    """One cached route: where an item addressed to a thread set goes.

    ``flat`` is the plain list of endpoints (the inproc fast path);
    ``grouped`` is ``[(replica_id, [(thread_index, endpoint), ...])]`` in
    ascending replica order — the shape fault planning and per-replica
    connections need.  Both views cover the same registrations; a
    transport uses whichever matches its delivery model.
    """

    __slots__ = ("flat", "grouped")

    def __init__(self, flat, grouped):
        self.flat = flat
        self.grouped = grouped


class Transport:
    """Delivery layer under the ordered-multicast core.

    Endpoints are whatever :meth:`open_endpoint` returns; the core treats
    them as opaque except for ``qsize()``, which it sums for
    ``pending_count`` (a transport whose backlog lives elsewhere returns
    0 from endpoints and accounts for it in :meth:`in_flight`).
    """

    #: True when items leave the process: the core then hands over every
    #: command as its encoded bytes instead of the object itself.
    carries_bytes = False

    def open_endpoint(self, replica_id, thread_index):
        """Create and return the delivery endpoint of one worker thread."""
        raise NotImplementedError

    def on_replica_registered(self, replica_id, endpoints, replay):
        """All endpoints of ``replica_id`` now exist (atomically with any
        concurrent multicast).

        ``endpoints`` maps thread index to endpoint.  ``replay`` is the
        retained log suffix the replica missed — ``(sequence,
        destinations, threads, payload)`` tuples, already filtered by
        sequence — or ``None`` for a fresh registration.  Replay is a
        local handover from the sequencer's log, not network traffic: it
        must bypass fault planning.
        """

    def on_replica_unregistered(self, replica_id, endpoints):
        """The replica's endpoints were removed; drop link state."""

    def send(self, route, item):
        """Deliver one ordered ``item`` along ``route`` (a
        :class:`TransportRoute`)."""
        raise NotImplementedError

    def in_flight(self, replica_id=None):
        """Items accepted by :meth:`send` but not yet delivered."""
        return 0

    def shutdown(self, endpoints):
        """Deliver a poison pill to every endpoint in ``{(replica_id,
        thread_index): endpoint}`` and stop background machinery."""

    def close(self):
        """Release transport resources (idempotent)."""
