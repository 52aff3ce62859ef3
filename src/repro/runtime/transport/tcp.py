"""TCP transport: the ordered stream over real sockets to real processes.

The coordinator (the process running :class:`LocalAtomicMulticast`)
listens on loopback.  Each replica *process* dials in, sends a ``hello``
frame, and from then on — once registered — the transport sends it
every ordered message: serialised once per message, shared by every
link, and framed per burst: each write carries a link's run of messages
as ``d`` frames (one CRC for the run, :func:`wire.deliver_frames`).  The
replica's :class:`~repro.runtime.transport.inproc.ReplicaInbox` fans
each message out to its worker threads, so the fault plane plans one
delivery per replica per message in both runtimes and its RNG draws line
up across them.

Two threads, whatever the replica count, on the blocking sockets and the
:class:`wire.FrameReader` the replica end uses too:

* the **pump** (:mod:`repro.runtime.transport.pump`, shared with the
  threaded runtime, fault injection included) takes what ``send``, the
  recovery replay and ``control_send`` posted and ends with one
  ``sendall`` of the joined frames per link;
* the **reader** multiplexes the listening socket and every link with
  ``selectors``: one ``recv_into`` per readable socket, every complete
  frame in it dispatched to ``on_message``.  It alone registers and
  closes sockets; any other thread ends a link by shutting the socket
  down, which the reader sees as EOF.

A link lives as long as its connection: each admitted ``hello`` makes a
fresh one (items toward the previous connection are void) and
unregistration voids the items still held toward the registration.
Control traffic (handshake, restore, stats, snapshots, shutdown) rides
the same per-link FIFO but bypasses fault planning; it is management
traffic, like the un-faulted response path in the threaded runtime.
"""

import selectors
import socket
import threading
import traceback

from repro.common.errors import RecoveryError
from repro.runtime.transport import wire
from repro.runtime.transport.pump import FramePump, Link

#: How long one ``sendall`` may wait on a peer that stopped reading
#: before its link is dropped like any broken one.  The pump serves every
#: link, so this is also the longest one stalled peer delays the others.
SEND_TIMEOUT = 5.0


class _Control:
    """A control frame on its way: written as it is, between the ``d``
    bursts of the ordered messages around it."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame


class _Peer(Link):
    """One accepted socket: the pump's link state plus the reader's."""

    __slots__ = ("reader", "replica_id")

    def __init__(self, sock):
        super().__init__(None, sock)
        self.reader = wire.FrameReader(sock)
        self.replica_id = None  # until its hello is admitted


class TcpCoordinatorTransport:
    """Server side of the process runtime's wire protocol.

    ``send``/``pending``/``on_replica_*``/``shutdown`` are what the
    sequencer calls (see :mod:`repro.runtime.multicast` for the
    contract); ``control_send``/``take_hello``/``request-style`` traffic
    is the cluster's management plane.  ``on_message(replica_id, message)``
    is invoked on the reader thread for every inbound frame after the
    hello — handlers must be cheap and non-blocking; one that raises
    costs its replica the link.
    """

    #: A socket needs bytes: the sequencer encodes every command once.
    carries_bytes = True

    def __init__(self, fault_plane=None, on_message=None, host="127.0.0.1"):
        self.fault_plane = fault_plane
        self.on_message = on_message or (lambda replica_id, message: None)
        self.host = host
        self.port = None
        self._lock = threading.Lock()
        self._links = {}  # replica_id -> _Peer; only the current connection
        # (replica_id, fault-plane node) of every registered replica, in
        # ascending id order; replaced whole on every (un)registration.
        self._registered = []
        self._hellos = {}  # replica_id -> [threading.Event, message]
        #: Ordered messages plus control frames handed to a socket, and
        #: the ``sendall`` calls that carried them (pump thread only; a
        #: write that failed counts in neither): their ratio is the
        #: achieved coalescing factor.
        self.frames_written = 0
        self.writes = 0
        self.pump = None
        self._reader = None
        self._waker = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind the listening socket; returns ``(host, port)``."""
        listener = socket.create_server((self.host, 0))
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        wakes, self._waker = socket.socketpair()
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ)
        selector.register(wakes, selectors.EVENT_READ)
        self.pump = FramePump(self._write, self.fault_plane)
        self._reader = threading.Thread(
            target=self._serve, args=(selector, listener),
            name="psmr-tcp-reader", daemon=True,
        )
        self._reader.start()
        return self.host, self.port

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._reader is None:
            return
        # Links first: a ``sendall`` stuck on a stalled peer fails at once,
        # so the pump can be joined.
        for link in list(self._links.values()):
            self._sever(link)
        self.pump.close()
        self._waker.close()  # EOF on the other end wakes the reader
        self._reader.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Reader thread: the listening socket and every connection
    # ------------------------------------------------------------------
    def _serve(self, selector, listener):
        try:
            while not self._closed:
                for key, _events in selector.select():
                    if key.data is not None:
                        self._receive(selector, key.data)
                    elif key.fileobj is listener:
                        self._accept(selector, listener)
        finally:
            for key in list(selector.get_map().values()):
                key.fileobj.close()
            selector.close()

    def _accept(self, selector, listener):
        try:
            sock, _address = listener.accept()
        except OSError:
            return
        # Nagle off, as on the replica's end (``wire.connect_with_backoff``
        # says why), and no ``sendall`` without a bound.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(SEND_TIMEOUT)
        selector.register(sock, selectors.EVENT_READ, _Peer(sock))

    def _receive(self, selector, peer):
        """Dispatch what one readable socket holds; a link that ended —
        EOF, an unreadable frame, a refused hello, a handler that raised —
        is dropped here, and the reader goes on serving the others."""
        keep = False
        try:
            messages = peer.reader.take()
            for message in messages or ():
                if peer.replica_id is not None:
                    self.on_message(peer.replica_id, message)
                elif not self._admit(peer, message):
                    break
            else:
                keep = messages is not None and peer.reader.error is None
        except Exception:
            traceback.print_exc()
        if not keep:
            selector.unregister(peer.sink)
            self._sever(peer)
            peer.sink.close()

    def _admit(self, peer, message):
        """A connection's first frame: a ``hello`` naming a replica whose
        waiter is armed and not yet answered.  Anything else — no id, an
        id nobody is waiting for, a second connection claiming a live
        replica's id — is refused, so only a process the cluster spawned
        becomes a link."""
        replica_id = message.get("replica") if isinstance(message, dict) else None
        if type(replica_id) is not int or message.get("t") != "hello":
            return False
        with self._lock:
            waiter = self._hellos.get(replica_id)
            if self._closed or waiter is None or waiter[1] is not None:
                return False
            old = self._links.get(replica_id)
            peer.replica_id = replica_id
            peer.node = f"replica{replica_id}"
            self._links[replica_id] = peer
            waiter[1] = message
        waiter[0].set()
        if old is not None:
            self._sever(old)
        return True

    def _sever(self, peer):
        """End a link from any thread: no longer current, its held items
        void, the socket shut down — which the reader sees as EOF, and it
        alone closes."""
        with self._lock:
            if self._links.get(peer.replica_id) is peer:
                del self._links[peer.replica_id]
        self.pump.void(peer)
        try:
            peer.sink.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Hello handshake (cluster thread)
    # ------------------------------------------------------------------
    def discard_hello(self, replica_id):
        """Arm a fresh hello waiter before (re)spawning a replica."""
        with self._lock:
            self._hellos[replica_id] = [threading.Event(), None]

    def take_hello(self, replica_id, timeout):
        """Block for the replica's hello frame; return the message."""
        waiter = self._hellos[replica_id]  # armed by ``discard_hello``
        arrived = waiter[0].wait(timeout)
        with self._lock:
            self._hellos.pop(replica_id, None)
        if not arrived:
            raise RecoveryError(
                f"replica {replica_id} did not connect within {timeout}s"
            )
        return waiter[1]

    # ------------------------------------------------------------------
    # Sequencer side (called under the multicast's sequencer lock)
    # ------------------------------------------------------------------
    def on_replica_registered(self, replica_id, replay):
        self._registered = sorted(
            [*self._registered, (replica_id, f"replica{replica_id}")]
        )
        # Replay is a local handover, not network traffic: frames carry
        # the retained suffix without fault planning.
        link = self._links.get(replica_id)
        if replay and link is not None:
            self.pump.post(
                [(link, wire.ordered_part(*item), 0.0) for item in replay]
            )

    def on_replica_unregistered(self, replica_id):
        self._registered = [
            entry for entry in self._registered if entry[0] != replica_id
        ]
        link = self._links.get(replica_id)
        if link is not None:
            self.pump.void(link)

    def send(self, item):
        # Serialise once per multicast: per link, only the frame around
        # the burst is left to pack (``_write``).
        ordered = wire.ordered_part(*item)
        plane = self.fault_plane
        links = self._links
        entries = []
        for replica_id, node in self._registered:
            # Planned whether or not the replica is connected: the draws
            # depend on the ordered stream alone.
            delay = 0.0 if plane is None else plane.plan_delivery("order", node)
            link = links.get(replica_id)
            if link is not None:
                entries.append((link, ordered, delay))
        self.pump.post(entries)

    def _write(self, link, items):
        """Pump thread: one ``sendall`` for everything due on one link —
        each run of ordered messages between control frames as ``d``
        bursts (:func:`wire.deliver_frames`), control frames as they are."""
        chunks, run = [], []
        for body in items:
            if type(body) is not _Control:
                run.append(body)
                continue
            if run:
                chunks += wire.deliver_frames(run)
                run = []
            chunks.append(body.frame)
        if run:
            chunks += wire.deliver_frames(run)
        try:
            link.sink.sendall(b"".join(chunks))
        except OSError:  # reset, closed under us, or ``SEND_TIMEOUT``
            self._sever(link)
            return
        self.writes += 1
        self.frames_written += len(items)

    def pending(self, replica_id=None):
        """Items the pump still holds: what a replica has queued is its
        own (it reports it in its stats)."""
        return sum(
            link.in_flight for link in list(self._links.values())
            if replica_id in (None, link.replica_id)
        )

    # ------------------------------------------------------------------
    # Control plane (cluster thread): un-faulted management frames
    # ------------------------------------------------------------------
    def control_send(self, replica_id, message):
        """Send a management frame outside fault planning; returns False
        when the replica has no live connection."""
        frame = _Control(wire.encode_message(message))
        link = self._links.get(replica_id)
        if link is None:
            return False
        self.pump.post([(link, frame, None)])
        return True

    def connected(self, replica_id):
        return replica_id in self._links

    def shutdown(self):
        """Ask every registered replica process to exit."""
        for replica_id, _node in self._registered:
            self.control_send(replica_id, {"t": "bye"})
