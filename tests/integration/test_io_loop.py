"""The process's one I/O loop behind a process cluster and its HTTP edge.

Replica links, the frame pump and the HTTP server share the loop
(:mod:`repro.runtime.ioloop`): a point request is answered without a
wake-up crossing threads, one loop thread serves however many clusters
and apps the process starts, and a blocking wait called on that thread
is refused at once instead of deadlocking it — nor does a cluster's
shutdown wait for the loop while it holds a lock a request there needs.
"""

import concurrent.futures
import contextlib
import http.client
import threading
import time

import pytest

from repro.common.errors import BlockingOnLoopError
from repro.common.faults import FaultPlane
from repro.frontend.app import create_app
from repro.frontend.backend import ClusterBackend
from repro.frontend.server import run_app_in_thread
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster, ioloop
from repro.runtime.cluster import _Cut
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


@contextlib.contextmanager
def served_cluster():
    """A two-replica kvstore process cluster behind ``create_app`` +
    ``run_app_in_thread``: ``(cluster, (host, port))``."""
    with ProcessPSMRCluster(
        service="kvstore", service_args={"initial_keys": 64}, num_replicas=2
    ) as cluster:
        base_url, stop = run_app_in_thread(
            create_app(kv_backend=ClusterBackend(cluster))
        )
        try:
            host, _, port = base_url.rpartition("//")[2].partition(":")
            yield cluster, (host, int(port))
        finally:
            stop()


@pytest.fixture(scope="module")
def served():
    with served_cluster() as pair:
        yield pair


def get(connection, path):
    connection.request("GET", path)
    response = connection.getresponse()
    response.read()
    return response.status


def on_the_loop(function):
    """Run ``function()`` on the I/O loop; return ``(what it raised or
    None, seconds it took)``."""
    outcome = concurrent.futures.Future()

    def run():
        started = time.monotonic()
        try:
            function()
        except BaseException as exc:
            outcome.set_result((exc, time.monotonic() - started))
        else:
            outcome.set_result((None, time.monotonic() - started))

    ioloop.loop().call_soon_threadsafe(run)
    return outcome.result(timeout=30.0)


def invoke_and_wait(cluster):
    pending = cluster.client().invoke_async("read", key=1)
    try:
        pending.result(timeout=5.0)
    finally:
        pending.discard()


#: Every wait that needs the loop to make progress, called on the loop.
BLOCKING_WAITS = {
    "invoke": lambda cluster: cluster.client().invoke("read", key=1),
    "PendingInvocation.result": invoke_and_wait,
    "stats?": lambda cluster: cluster.replicas[0].stats(),
    "snap?": lambda cluster: cluster.replicas[0].snapshot(),
    "chain?": lambda cluster: cluster.replicas[0].chain_suffix(-1),
    "take_hello": lambda cluster: cluster.transport.take_hello(0, timeout=5.0),
    "_Cut.wait_for": lambda cluster: _Cut().wait_for(0, timeout=5.0),
    "wait_for_quiescence": lambda cluster: cluster.wait_for_quiescence(timeout=5.0),
    "TcpCoordinatorTransport.close": lambda cluster: cluster.transport.close(),
}


@pytest.mark.parametrize("wait", sorted(BLOCKING_WAITS))
def test_a_blocking_wait_on_the_loop_is_refused_and_the_loop_serves_on(
    served, wait
):
    cluster, address = served
    error, seconds = on_the_loop(lambda: BLOCKING_WAITS[wait](cluster))
    assert isinstance(error, BlockingOnLoopError), error
    assert seconds < 1.0
    # The next HTTP request is answered, and the cluster still works.
    connection = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        assert get(connection, "/kv/1") == 200
    finally:
        connection.close()
    assert cluster.client().invoke("read", key=2).error is None
    assert cluster.transport.connected(0) and cluster.transport.connected(1)


def test_a_point_request_makes_no_threadsafe_call_onto_the_loop(served):
    _cluster, address = served
    loop = ioloop.loop()
    calls = []
    schedule = loop.call_soon_threadsafe

    def counting(callback, *args, **kwargs):
        calls.append(callback)
        return schedule(callback, *args, **kwargs)

    connection = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        assert get(connection, "/healthz") == 200  # connected and warm
        loop.call_soon_threadsafe = counting
        try:
            statuses = [get(connection, f"/kv/{key % 64}") for key in range(50)]
        finally:
            del loop.call_soon_threadsafe
    finally:
        connection.close()
    assert statuses == [200] * 50
    # Read, ordered, written to the replicas, answered and resolved on
    # the one loop thread: no wake-up crossed threads.
    assert calls == []


def test_one_io_thread_however_many_clusters_and_apps(served, transport_threads):
    with served_cluster() as (_other, address):
        connection = http.client.HTTPConnection(*address, timeout=5.0)
        try:
            assert get(connection, "/kv/3") == 200
        finally:
            connection.close()
        assert transport_threads() == [ioloop.THREAD_NAME]
    assert transport_threads() == [ioloop.THREAD_NAME]


def test_a_threaded_cluster_shuts_down_with_a_request_in_flight_on_the_loop():
    # With a plane, the threaded cluster's pump runs on the loop too.
    cluster = ThreadedPSMRCluster(
        KVSTORE_SPEC, KeyValueStoreServer, fault_plane=FaultPlane()
    ).start()
    base_url, stop = run_app_in_thread(
        create_app(kv_backend=ClusterBackend(cluster), request_timeout=1.0)
    )
    host, _, port = base_url.rpartition("//")[2].partition(":")
    statuses = []

    def request():
        connection = http.client.HTTPConnection(host, int(port), timeout=5.0)
        try:
            statuses.append(get(connection, "/kv/1"))
        finally:
            connection.close()

    client = threading.Thread(target=request)
    transport = cluster.multicast.transport
    shutdown = transport.shutdown

    def shutdown_with_a_request_in_flight():
        # Called under the sequencer lock: the request's multicast waits
        # for it on the loop while the transport shuts down.
        client.start()
        time.sleep(0.3)
        shutdown()

    transport.shutdown = shutdown_with_a_request_in_flight
    try:
        started = time.monotonic()
        cluster.shutdown()
        assert time.monotonic() - started < 3.0
        # The poison pills reached every worker: none is left running.
        assert not any(
            worker.is_alive()
            for replica in cluster.replicas for worker in replica.threads
        )
        # Ordered after the shutdown, the read times out.
        client.join(timeout=10.0)
        assert statuses == [503]
    finally:
        stop()
