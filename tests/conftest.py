"""Shared fixtures for the test suite."""

import contextlib
import random
import socket
import struct
import threading
import time

import pytest

from repro.common.config import ClusterConfig, CostModelConfig, MulticastConfig
from repro.common.faults import FaultPlane
from repro.multicast.group import ALL_GROUPS
from repro.runtime import ioloop
from repro.runtime.transport import InprocTransport, TcpCoordinatorTransport, wire
from repro.sim import Environment


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def costs():
    """Default cost model."""
    return CostModelConfig()


@pytest.fixture
def multicast_config():
    return MulticastConfig()


@pytest.fixture
def small_cluster_config():
    """A small, fast cluster configuration for integration tests."""
    return ClusterConfig(num_replicas=2, mpl=4, num_clients=8, client_window=8, seed=3)


#: Threads the coordinator's socket I/O ran on before it moved onto the
#: one I/O loop: none of them may come back.
OLD_IO_THREADS = ("psmr-pump", "psmr-tcp-reader", "frontend-http")


@pytest.fixture
def transport_threads():
    """``transport_threads()``: the sorted names of the live threads the
    coordinator's socket I/O may run on — the process's one I/O loop
    thread (started here, so it is always there) and any thread of
    :data:`OLD_IO_THREADS`.  Every transport and app shares the loop, so
    the answer is ``["psmr-io"]`` however many of them run."""
    ioloop.loop()

    def names():
        return sorted(
            thread.name for thread in threading.enumerate()
            if thread.name == ioloop.THREAD_NAME or thread.name in OLD_IO_THREADS
        )

    return names


class _Healthy:
    """A backend whose ``/healthz`` needs no cluster."""

    def health(self):
        return {"status": "ok", "runtime": "process", "live_replicas": 2,
                "num_replicas": 2}


@pytest.fixture(scope="session")
def healthy_backend():
    """A frontend backend that answers ``/healthz`` and nothing else."""
    return _Healthy()


@contextlib.contextmanager
def _fake_replicas(count, fault_plane=None, on_message=None, register=True):
    transport = TcpCoordinatorTransport(fault_plane, on_message=on_message)
    transport.start()
    socks = []
    try:
        for replica_id in range(count):
            transport.discard_hello(replica_id)  # as ``respawn`` does
            sock = socket.create_connection(
                (transport.host, transport.port), timeout=5.0
            )
            socks.append(sock)
            wire.send_message(sock, {
                "t": "hello", "replica": replica_id, "watermark": -1,
                "pid": replica_id,
            })
            transport.take_hello(replica_id, timeout=5.0)
            if register:
                transport.on_replica_registered(replica_id, None)
        yield transport, [wire.FrameReader(sock) for sock in socks]
    finally:
        for sock in socks:
            sock.close()
        transport.close()


@pytest.fixture(scope="session")
def fake_replicas():
    """``with fake_replicas(count, fault_plane=None, on_message=None,
    register=True) as (transport, readers)``: a started TCP coordinator
    transport with ``count`` replica connections past their hello,
    registered for ordered traffic unless ``register`` is false, and a
    ``FrameReader`` per replica socket."""
    return _fake_replicas


class Writes(list):
    """What :func:`record_writes` saw: one ``(node, [sequence, ...])`` per
    ``write`` call, in call order."""

    def to(self, node):
        """The sequences written to ``node``, in write order."""
        return [
            sequence for link, sequences in self if link == node
            for sequence in sequences
        ]


def _record_writes(transport):
    writes = Writes()
    write = transport.pump.write

    def recording_write(link, items):
        # An in-process item is ``(s, dst, body)``; an ordered part on its
        # way to a socket starts with ``s``.
        writes.append((link.node, [
            item[0] if type(item) is tuple else struct.unpack_from(">q", item)[0]
            for item in items
        ]))
        write(link, items)

    transport.pump.write = recording_write
    return writes


@pytest.fixture(scope="session")
def record_writes():
    """``record_writes(transport)``: wrap the transport's pump ``write``
    to record the sequences of the ordered items it hands each link, as a
    :class:`Writes` (no control frame may pass while it records)."""
    return _record_writes


#: Replicas a :func:`pump_script` run sends to.
SCRIPT_REPLICAS = 3


@pytest.fixture(scope="session")
def pump_script():
    """``pump_script(sink, seed, faults, count)``: send ``count`` ordered
    items to :data:`SCRIPT_REPLICAS` replicas through the transport of
    ``sink`` — ``"socket"`` (TCP, fake replica processes) or
    ``"queues"`` (in-process) — under a fault plane whose links have
    ``faults``, and assert that every link's ``write`` carried each item
    posted to it once, in posting order.

    The script, drawn from ``random.Random(seed)``: replicas are isolated
    and the plane healed at random points, the sender pauses now and
    then, and the last replica's registration is voided before a random
    item (or after the last): its link carries a prefix of what was
    posted before the void.  Then the plane is healed and the pump
    drained.  Over sockets, the frames each fake replica reads decode to
    what its link's ``write`` was handed.  Returns the plane.
    """
    return _run_pump_script


def _run_pump_script(sink, seed, faults, count):
    plane = FaultPlane(seed=seed, retransmit_backoff=0.001)
    plane.set_link(**faults)
    rng = random.Random(seed)
    nodes = [f"replica{replica_id}" for replica_id in range(SCRIPT_REPLICAS)]
    with contextlib.ExitStack() as stack:
        if sink == "queues":
            transport = InprocTransport(1, plane)
            stack.callback(transport.close)
            for replica_id in range(SCRIPT_REPLICAS):
                transport.on_replica_registered(replica_id, None)
            readers = []
        else:
            transport, readers = stack.enter_context(
                _fake_replicas(SCRIPT_REPLICAS, plane)
            )
        writes = _record_writes(transport)
        void_at = rng.randrange(count + 1)
        for sequence in range(count + 1):
            if sequence == void_at:
                transport.on_replica_unregistered(SCRIPT_REPLICAS - 1)
            if sequence == count:
                break
            roll = rng.random()
            if roll < 0.15:
                plane.isolate(rng.choice(nodes))
            elif roll < 0.3:
                plane.heal()
            if rng.random() < 0.3:
                time.sleep(rng.uniform(0.0, 0.003))
            transport.send((sequence, ALL_GROUPS, b"c%d" % sequence))
        plane.heal()
        deadline = time.monotonic() + 10.0
        while any(link.in_flight for link in list(transport._links.values())):
            assert time.monotonic() < deadline, "the pump never drained"
            time.sleep(0.002)
        written = {node: writes.to(node) for node in nodes}
        for node, reader in zip(nodes, readers):
            received = []
            while len(received) < len(written[node]):
                received += [
                    message[0] for frame in reader.read() for message in frame["msgs"]
                ]
            assert received == written[node]
    *kept, voided = nodes
    for node in kept:
        assert written[node] == list(range(count))
    assert written[voided] == list(range(len(written[voided])))
    assert len(written[voided]) <= void_at
    return plane
