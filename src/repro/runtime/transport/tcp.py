"""TCP transport: the ordered stream over real sockets to real processes.

The coordinator (the process running :class:`LocalAtomicMulticast`) owns
an asyncio event loop on a background thread with a listening socket on
loopback.  Each replica *process* dials in, sends a ``hello`` frame, and
from then on the transport sends one ``d`` (deliver) frame per ordered
message per replica — serialised once per message, with only the link
sequence and the frame CRC packed per replica.  The replica fans the
message out to its worker threads locally, mirroring the in-process
pipe's one-planned-delivery-per-replica model so the fault plane's RNG
draws line up across both runtimes.

Frames cross from the calling threads to the loop through one *outbox*:
``send``, the recovery replay and ``control_send`` append to it and wake
the loop only when no wake-up is already pending; the loop takes all
that accumulated and ends with one ``writer.write`` of the joined frames
per link.  No timer, no linger: a lone frame leaves at once, a pipelined
burst costs one self-pipe write and one socket write per link instead of
one of each per command.  One outbox is also one FIFO per link — a
``stats?`` never overtakes the ``d`` frames sent before it, which
quiescence relies on.

Fault injection happens here, per link, as a frame proxy: ``send`` asks
the plane for per-copy delays (``plan_delivery``), the drain fires the
zero-delay copies and parks the others with ``loop.call_later``, and at
fire time copies whose link is partitioned are re-parked
(``is_blocked`` → ``retransmit_backoff`` later — a partition is latency,
not loss).  Duplicated and reordered copies are repaired by the
receiver-side :class:`~repro.common.faults.ReliableLink` in the replica
process, exactly as in the threaded pipe.

Connection epochs: each accepted ``hello`` and each unregistration bumps
the replica's epoch, voiding copies still scheduled toward the previous
connection — the socket analogue of the pipe's incarnation counters.
Control traffic (handshake, restore, stats, snapshots, shutdown) bypasses
fault planning and link sequencing; it is management traffic, like the
un-faulted response path in the threaded runtime.
"""

import asyncio
import threading

from repro.common import framing
from repro.common.errors import RecoveryError
from repro.runtime.transport import wire
from repro.runtime.transport.base import Transport


class _NullEndpoint:
    """Placeholder delivery endpoint: frames go out the socket instead,
    so the coordinator-side queue depth is always zero (in-flight copies
    are counted by the transport itself)."""

    __slots__ = ()

    def qsize(self):
        return 0

    def put(self, item):  # poison pills from core shutdown: nothing to do
        return None


class TcpCoordinatorTransport(Transport):
    """Server side of the process runtime's wire protocol.

    ``send``/``in_flight``/``on_replica_*`` satisfy the
    :class:`Transport` contract (called under the multicast's sequencer
    lock); ``control_send``/``take_hello``/``request-style`` traffic is
    the cluster's management plane.  ``on_message(replica_id, message)``
    is invoked on the event-loop thread for every inbound frame after the
    hello — handlers must be cheap and non-blocking.
    """

    carries_bytes = True  # a socket needs them; see ``Transport``

    def __init__(self, fault_plane=None, on_message=None, host="127.0.0.1"):
        self.fault_plane = fault_plane
        self.on_message = on_message
        self.host = host
        self.port = None
        self._loop = None
        self._server = None
        self._thread = None
        self._lock = threading.Lock()
        # replica_id -> (reader, writer); only the current connection.
        self._links = {}
        self._epochs = {}  # replica_id -> int, bumped at hello/unregister
        self._send_seq = {}  # replica_id -> next link sequence
        self._in_flight = {}  # (replica_id, epoch) -> unwritten copy count
        # (replica_id, epoch, frame, delays) awaiting the loop; a control
        # frame is (writer, None, frame, (0.0,)) — addressed to the
        # connection it was sent on, not to a registration.
        self._outbox = []
        #: Frames handed to a socket and the ``writer.write`` calls that
        #: carried them (loop thread only); their ratio is the achieved
        #: coalescing factor.
        self.frames_written = 0
        self.writes = 0
        self._hellos = {}  # replica_id -> (threading.Event, message)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind the listening socket; returns ``(host, port)``."""
        ready = threading.Event()

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def _serve():
                self._server = await asyncio.start_server(
                    self._handle_connection, self.host, 0
                )
                self.port = self._server.sockets[0].getsockname()[1]
                ready.set()

            loop.run_until_complete(_serve())
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="psmr-tcp-coordinator", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RecoveryError("coordinator transport failed to bind")
        return self.host, self.port

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            writers = [writer for _reader, writer in self._links.values()]
            self._links.clear()
        loop = self._loop
        if loop is None:
            return

        def _stop():
            for writer in writers:
                try:
                    writer.close()
                except Exception:
                    pass
            if self._server is not None:
                self._server.close()
            loop.stop()

        try:
            loop.call_soon_threadsafe(_stop)
        except RuntimeError:
            return
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Connection handling (event-loop thread)
    # ------------------------------------------------------------------
    async def _read_message(self, reader):
        try:
            header = await reader.readexactly(framing.HEADER_SIZE)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        parsed = framing.parse_header(header, framing.WIRE_MAGIC)
        if parsed is None:
            return None
        length, crc = parsed
        try:
            payload = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        if not framing.payload_valid(payload, length, crc):
            return None
        try:
            return wire.decode_payload(payload)
        except Exception:
            return None

    async def _handle_connection(self, reader, writer):
        message = await self._read_message(reader)
        if not isinstance(message, dict) or message.get("t") != "hello":
            writer.close()
            return
        replica_id = message["replica"]
        with self._lock:
            if self._closed:
                writer.close()
                return
            old = self._links.get(replica_id)
            # New connection: new epoch (in-flight copies toward the old
            # one are void) and link sequences restart at zero.
            self._epochs[replica_id] = self._epochs.get(replica_id, 0) + 1
            self._send_seq[replica_id] = 0
            self._links[replica_id] = (reader, writer)
            waiter = self._hellos.get(replica_id)
            if waiter is not None:
                waiter[1] = message
                waiter[0].set()
        if old is not None:
            try:
                old[1].close()
            except Exception:
                pass
        while True:
            message = await self._read_message(reader)
            if message is None:
                break
            if self.on_message is not None:
                self.on_message(replica_id, message)
        with self._lock:
            if self._links.get(replica_id) == (reader, writer):
                del self._links[replica_id]
        try:
            writer.close()
        except Exception:
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
        with self._lock:
            waiter = self._hellos.get(replica_id)
        if waiter is None:
            raise RecoveryError(
                f"no hello waiter armed for replica {replica_id}"
            )
        if not waiter[0].wait(timeout):
            raise RecoveryError(
                f"replica {replica_id} did not connect within {timeout}s"
            )
        with self._lock:
            self._hellos.pop(replica_id, None)
        return waiter[1]

    # ------------------------------------------------------------------
    # Transport interface (called under the multicast's sequencer lock)
    # ------------------------------------------------------------------
    def open_endpoint(self, replica_id, thread_index):
        return _NullEndpoint()

    def on_replica_registered(self, replica_id, endpoints, replay):
        # Replay is a local handover, not network traffic: frames carry
        # the retained suffix without fault planning, consuming link
        # sequences from zero on the (fresh-epoch) connection.
        if replay:
            self._post(
                [
                    self._copies(
                        replica_id,
                        wire.ordered_part(entry[0], entry[1], entry[3]),
                        (0.0,),
                    )
                    for entry in replay
                ]
            )

    def on_replica_unregistered(self, replica_id, endpoints):
        with self._lock:
            # Void every copy still scheduled toward this registration.
            self._epochs[replica_id] = self._epochs.get(replica_id, 0) + 1
            self._send_seq.pop(replica_id, None)

    def _copies(self, replica_id, ordered, delays):
        """One outbox entry: the ``d`` frame carrying ``ordered`` (the
        message as :func:`wire.ordered_part` packed it, once for every
        replica) toward ``replica_id``, and the delay of each copy.
        Link sequence, epoch and in-flight increment share one lock
        acquisition, so every copy later decrements the exact key it
        incremented."""
        with self._lock:
            link_sequence = self._send_seq.get(replica_id, 0)
            self._send_seq[replica_id] = link_sequence + 1
            epoch = self._epochs.get(replica_id, 0)
            key = (replica_id, epoch)
            self._in_flight[key] = self._in_flight.get(key, 0) + len(delays)
        frame = wire.deliver_frame(link_sequence, ordered)
        return replica_id, epoch, frame, delays

    def send(self, route, item):
        # Serialise once per multicast: per link, only the link sequence
        # and the frame CRC are left to pack.
        ordered = wire.ordered_part(*item)
        plane = self.fault_plane
        entries = []
        for replica_id, _targets in route.grouped:
            if plane is not None:
                delays = plane.plan_delivery("order", f"replica{replica_id}")
            else:
                delays = (0.0,)
            entries.append(self._copies(replica_id, ordered, delays))
        self._post(entries)

    def _post(self, entries):
        """Append to the outbox; wake the loop unless a wake-up is already
        pending (the one cross-thread scheduling site for frames)."""
        with self._lock:
            wake = not self._outbox  # non-empty: a drain is already due
            self._outbox.extend(entries)
        if wake:
            self._loop.call_soon_threadsafe(self._drain)

    # Event-loop thread from here down.
    def _drain(self):
        with self._lock:
            entries, self._outbox = self._outbox, []
        due = []
        for target, epoch, frame, delays in entries:
            for delay in delays:
                if delay <= 0:
                    due.append((target, epoch, frame))
                else:
                    self._loop.call_later(
                        delay, self._fire, [(target, epoch, frame)]
                    )
        self._fire(due)

    def _fire(self, copies):
        """Pass each due copy through the epoch and partition checks, then
        write what survives: one ``writer.write`` per link."""
        plane = self.fault_plane
        ready = {}  # writer -> frames, in outbox (= per-link FIFO) order
        settled = []  # in-flight keys of copies leaving the transport
        with self._lock:
            for target, epoch, frame in copies:
                if epoch is None:  # control frame: ``target`` is its writer
                    ready.setdefault(target, []).append(frame)
                    continue
                if epoch == self._epochs.get(target, 0):
                    if plane is not None and plane.is_blocked(
                        "order", f"replica{target}"
                    ):
                        # Partition: latency, not loss — re-park without
                        # touching the in-flight count so drain checks
                        # keep waiting.
                        plane.note_blocked_retry()
                        self._loop.call_later(
                            plane.retransmit_backoff,
                            self._fire,
                            [(target, epoch, frame)],
                        )
                        continue
                    link = self._links.get(target)
                    if link is not None:
                        ready.setdefault(link[1], []).append(frame)
                settled.append((target, epoch))
        for writer, frames in ready.items():
            try:
                writer.write(b"".join(frames))
            except Exception:
                pass
            self.writes += 1
            self.frames_written += len(frames)
        # Only now: ``in_flight() == 0`` must mean "handed to a socket".
        with self._lock:
            for key in settled:
                count = self._in_flight.get(key, 0) - 1
                if count > 0:
                    self._in_flight[key] = count
                else:
                    self._in_flight.pop(key, None)

    def in_flight(self, replica_id=None):
        with self._lock:
            return sum(
                count
                for (rid, epoch), count in self._in_flight.items()
                # Only current-epoch copies: stale copies toward a dead
                # connection are semantically dropped already.
                if epoch == self._epochs.get(rid, 0)
                and (replica_id is None or rid == replica_id)
            )

    # ------------------------------------------------------------------
    # Control plane (cluster thread): un-faulted management frames
    # ------------------------------------------------------------------
    def control_send(self, replica_id, message):
        """Send a management frame outside link sequencing and fault
        planning; returns False when the replica has no live connection."""
        frame = wire.encode_message(message)
        with self._lock:
            link = self._links.get(replica_id)
        if link is None or self._loop is None:
            return False
        try:
            self._post([(link[1], None, frame, (0.0,))])
        except RuntimeError:
            return False
        return True

    def connected(self, replica_id):
        with self._lock:
            return replica_id in self._links

    def shutdown(self, endpoints):
        """Core shutdown: ask every connected replica process to exit."""
        seen = set()
        for replica_id, _thread_index in endpoints:
            if replica_id in seen:
                continue
            seen.add(replica_id)
            self.control_send(replica_id, {"t": "bye"})
