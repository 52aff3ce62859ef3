"""A command whose ``service.apply`` raises is answered with an error.

Every replica applies the same command at the same point of its stream,
so every replica meets the same exception: it becomes that command's
error response, naming the exception's type, and the worker goes on.  A
key the B+-tree cannot compare with its integer keys (``"abc"``) raises
a ``TypeError`` in ``read`` (one group, parallel mode) and in ``insert``
(every group, synchronous mode).  Afterwards every group answers and
every replica drains, which it cannot with a dead worker.  The same holds
for a checkpoint whose snapshot raises: the cut reports the error and its
barrier still completes.
"""

import time

import pytest

from repro.common.errors import CheckpointError
from repro.core.command import BATCH
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

REPLICAS, MPL, KEYS = 2, 2, 8
INITIAL = b"\x00" * 8


def _threaded():
    return ThreadedPSMRCluster(
        KVSTORE_SPEC, lambda: KeyValueStoreServer(initial_keys=KEYS),
        num_replicas=REPLICAS, mpl=MPL,
    )


def _process():
    return ProcessPSMRCluster(
        service="kvstore", service_args={"initial_keys": KEYS},
        num_replicas=REPLICAS, mpl=MPL,
    )


@pytest.fixture(params=[_threaded, _process], ids=["threaded", "proc"])
def cluster(request):
    with request.param() as cluster:
        yield cluster


def _assert_every_worker_lives(cluster):
    client = cluster.client()
    groups = {}
    for key in range(KEYS):
        groups.setdefault(cluster.cg.route("read", {"key": key})[0], key)
    assert len(groups) == MPL  # a read on every group
    for key in groups.values():
        response = client.invoke("read", key=key, timeout=10.0)
        assert (response.value, response.error) == (INITIAL, None)
    # A dead worker leaves what it was handed queued: no quiescence.
    cluster.wait_for_quiescence(timeout=10.0)
    if isinstance(cluster, ThreadedPSMRCluster):
        threads = [thread for replica in cluster.replicas for thread in replica.threads]
        assert len(threads) == REPLICAS * MPL
        assert all(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("name", ["read", "insert"])
def test_the_command_answers_with_an_error_and_every_worker_lives(cluster, name):
    args = {"key": "abc"} if name == "read" else {"key": "abc", "value": b"v"}
    response = cluster.client().invoke(name, timeout=10.0, **args)
    assert response.value is None
    assert response.error.startswith("TypeError: ")
    _assert_every_worker_lives(cluster)


def test_a_bad_call_in_a_batch_costs_that_call_only(cluster):
    calls = [("read", {"key": 2}), ("read", {"key": "abc"}), ("read", {"key": 4})]
    response = cluster.client().invoke(BATCH, timeout=10.0, calls=calls)
    assert response.error is None
    (first, bad, last) = response.value
    assert first == last == (INITIAL, None)
    assert bad[0] is None and bad[1].startswith("TypeError: ")
    _assert_every_worker_lives(cluster)


class _SnapshotRaises(KeyValueStoreServer):
    def checkpoint(self):
        raise TypeError("no snapshot today")


def test_a_snapshot_that_raises_fails_the_checkpoint_and_every_worker_lives():
    timeout = 1.0
    with ThreadedPSMRCluster(
        KVSTORE_SPEC, lambda: _SnapshotRaises(initial_keys=KEYS),
        num_replicas=REPLICAS, mpl=MPL, barrier_timeout=timeout,
    ) as cluster:
        started = time.monotonic()
        with pytest.raises(CheckpointError, match="TypeError"):
            cluster.checkpoint()
        # The report, not the barrier timeout, ended the wait.
        assert time.monotonic() - started < timeout / 2
        _assert_every_worker_lives(cluster)
