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

No thread of its own, whatever the replica count: the listener and every
link live on the process's I/O loop (:mod:`repro.runtime.ioloop`), the
thread that also serves HTTP, on non-blocking sockets.

* The **pump** (:mod:`repro.runtime.transport.pump`, shared with the
  threaded runtime, fault injection included) takes what ``send``, the
  recovery replay and ``control_send`` posted and ends each of its
  passes with one write of the joined frames per link: one ``send``, and
  whatever the socket did not take waits in the link's buffer, written
  as the socket drains, ahead of anything written after it.  A link whose
  oldest buffered byte waited :data:`SEND_TIMEOUT` is severed and its
  buffer released; the loop never waits on a socket.
* **Reading** is ``loop.add_reader`` per socket: an accept on the
  listener, one :meth:`wire.FrameReader.take` (one ``recv_into``) on a
  link, every complete frame in it dispatched to ``on_message`` on the
  loop's thread.  The loop alone closes sockets; any other thread ends a
  link by shutting the socket down, which its reader sees as EOF.

A link lives as long as its connection: each admitted ``hello`` makes a
fresh one (items toward the previous connection are void) and
unregistration voids the items still held toward the registration.
Control traffic (handshake, restore, stats, snapshots, shutdown) rides
the same per-link FIFO but bypasses fault planning; it is management
traffic, like the un-faulted response path in the threaded runtime.
"""

import socket
import threading
import traceback
from collections import deque

from repro.common.errors import RecoveryError
from repro.runtime import ioloop
from repro.runtime.transport import wire
from repro.runtime.transport.pump import FramePump, Link

#: How long a byte written to a link may wait in its buffer for the peer
#: to take it before the link is dropped like any broken one — a peer
#: that reads too slowly, as one that stopped reading.  Writes never
#: wait: a stalled peer costs the others nothing but the memory of its
#: buffer, which this bounds.
SEND_TIMEOUT = 5.0


class _Control:
    """A control frame on its way: written as it is, between the ``d``
    bursts of the ordered messages around it."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame


class _Peer(Link):
    """One accepted socket: the pump's link state, the reader, and the
    write side's ``buffer`` (bytes the socket has not taken yet, or
    ``None``).  ``writes`` splits the buffer into the writes it holds the
    rest of, oldest first, each ``[bytes left, deadline, ordered
    items]``; ``buffered`` counts those items (read from any thread by
    :meth:`TcpCoordinatorTransport.pending`), and ``stall`` is the check
    armed for the oldest write's deadline while the buffer holds any."""

    __slots__ = ("reader", "replica_id", "buffer", "writes", "buffered", "stall")

    def __init__(self, sock):
        super().__init__(None, sock)
        self.reader = wire.FrameReader(sock)
        self.replica_id = None  # until its hello is admitted
        self.buffer = None
        self.writes = deque()
        self.buffered = 0
        self.stall = None


class TcpCoordinatorTransport:
    """Server side of the process runtime's wire protocol.

    ``send``/``pending``/``on_replica_*``/``shutdown`` are what the
    sequencer calls (see :mod:`repro.runtime.multicast` for the
    contract); ``control_send``/``take_hello``/``request-style`` traffic
    is the cluster's management plane.  ``on_message(replica_id, message)``
    is invoked on the I/O loop's thread for every inbound frame after the
    hello — handlers must be cheap and never block (a blocking wait there
    is refused, :func:`repro.runtime.ioloop.forbid_blocking`); one that
    raises costs its replica the link.
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
        #: Ordered messages plus control frames handed to a link, and the
        #: writes that carried them (loop thread only; a write that failed
        #: counts in neither): their ratio is the achieved coalescing
        #: factor.
        self.frames_written = 0
        self.writes = 0
        self.pump = None
        self._loop = None
        self._listener = None
        self._peers = set()  # every accepted socket still open (loop only)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind the listening socket and serve it on the I/O loop; returns
        ``(host, port)``."""
        listener = socket.create_server((self.host, 0))
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._loop = ioloop.loop()
        self.pump = FramePump(self._write, self.fault_plane)
        ioloop.soon(self._loop.add_reader, listener, self._accept)
        return self.host, self.port

    def close(self):
        """Sever every link, close every socket; returns once the loop has
        (idempotent).  Refused on the loop's thread."""
        ioloop.forbid_blocking("TcpCoordinatorTransport.close")
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._listener is not None:
            ioloop.call(self._close_on_loop)

    def _close_on_loop(self):
        self._loop.remove_reader(self._listener)
        self._listener.close()
        for peer in list(self._peers):
            self._sever(peer)
            self._drop(peer)
        self.pump.close()

    # ------------------------------------------------------------------
    # Loop thread: the listening socket and every connection
    # ------------------------------------------------------------------
    def _accept(self):
        try:
            sock, _address = self._listener.accept()
        except OSError:
            return
        # Nagle off, as on the replica's end (``wire.connect_with_backoff``
        # says why); the loop never waits on a socket.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        peer = _Peer(sock)
        self._peers.add(peer)
        self._loop.add_reader(sock, self._receive, peer)

    def _receive(self, peer):
        """Dispatch what one readable socket holds; a link that ended —
        EOF, an unreadable frame, a refused hello, a handler that raised —
        is dropped here, and the loop goes on serving the others."""
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
            self._sever(peer)
            self._drop(peer)

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
        void, the socket shut down — which its reader sees as EOF, and the
        loop alone closes."""
        with self._lock:
            if self._links.get(peer.replica_id) is peer:
                del self._links[peer.replica_id]
        self.pump.void(peer)
        try:
            peer.sink.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _drop(self, peer):
        """Loop thread: release what a severed link holds — its buffer,
        its stall check, its place on the loop, its socket."""
        if peer.buffer is not None:
            peer.buffer = None
            peer.writes.clear()
            peer.buffered = 0
            self._loop.remove_writer(peer.sink)
        if peer.stall is not None:
            peer.stall.cancel()
            peer.stall = None
        if peer in self._peers:
            self._peers.discard(peer)
            self._loop.remove_reader(peer.sink)
            peer.sink.close()

    # ------------------------------------------------------------------
    # Hello handshake (cluster thread)
    # ------------------------------------------------------------------
    def discard_hello(self, replica_id):
        """Arm a fresh hello waiter before (re)spawning a replica."""
        with self._lock:
            self._hellos[replica_id] = [threading.Event(), None]

    def take_hello(self, replica_id, timeout):
        """Block for the replica's hello frame; return the message.
        Refused on the loop's thread, which is what reads it."""
        ioloop.forbid_blocking("take_hello")
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
        """Loop thread: one write for everything due on one link — each
        run of ordered messages between control frames as ``d`` bursts
        (:func:`wire.deliver_frames`), control frames as they are — sent
        at once, or behind the bytes the link still buffers."""
        chunks, run, ordered = [], [], len(items)
        for body in items:
            if type(body) is not _Control:
                run.append(body)
                continue
            ordered -= 1
            if run:
                chunks += wire.deliver_frames(run)
                run = []
            chunks.append(body.frame)
        if run:
            chunks += wire.deliver_frames(run)
        data = b"".join(chunks)
        left = len(data)
        if link.buffer is not None:
            link.buffer += data
        else:
            try:
                left -= link.sink.send(data)
            except BlockingIOError:
                pass
            except OSError:  # reset, or closed under us
                self._sever(link)
                self._drop(link)
                return
            if left:
                link.buffer = bytearray(memoryview(data)[-left:])
                self._loop.add_writer(link.sink, self._drain, link)
        if left:
            deadline = self._loop.time() + SEND_TIMEOUT
            link.writes.append([left, deadline, ordered])
            link.buffered += ordered
            if link.stall is None:
                link.stall = self._loop.call_at(deadline, self._check_stall, link)
        self.writes += 1
        self.frames_written += len(items)

    def _drain(self, link):
        """Loop thread, the socket is writable: hand it what it takes."""
        try:
            sent = link.sink.send(link.buffer)
        except BlockingIOError:
            return
        except OSError:
            self._sever(link)
            self._drop(link)
            return
        del link.buffer[:sent]
        writes = link.writes
        while sent:
            write = writes[0]
            if write[0] > sent:
                write[0] -= sent
                break
            sent -= write[0]
            link.buffered -= write[2]
            writes.popleft()
        if not link.buffer:
            link.buffer = None
            self._loop.remove_writer(link.sink)
            link.stall.cancel()
            link.stall = None

    def _check_stall(self, link):
        """Loop thread: sever a link whose oldest buffered write is past
        its deadline, or look again at the deadline of the one that now
        is the oldest."""
        link.stall = None
        if link.buffer is None:
            return
        deadline = link.writes[0][1]
        if self._loop.time() >= deadline:
            self._sever(link)
            self._drop(link)
        else:
            link.stall = self._loop.call_at(deadline, self._check_stall, link)

    def pending(self, replica_id=None):
        """Items the pump still holds or a link still buffers: what a
        replica has queued is its own (it reports it in its stats)."""
        return sum(
            link.in_flight + link.buffered for link in list(self._links.values())
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
