"""Synchronous mode on a live replica: a command addressed to every group
runs alone, after everything ordered before it has finished executing."""

import threading
import time

from repro.runtime import ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

SLOW_KEY = 7


class _WatchedStore(KeyValueStoreServer):
    """Counts the executions in flight; an ``update`` of ``SLOW_KEY`` lingers."""

    def __init__(self):
        super().__init__(initial_keys=64)
        self._watch = threading.Lock()
        self.in_flight = 0
        self.finished = []  # (name, key, executions in flight beside it)
        self.slow_update_started = threading.Event()

    def execute(self, name, args):
        with self._watch:
            self.in_flight += 1
            beside = self.in_flight - 1
        try:
            if name == "update" and args["key"] == SLOW_KEY:
                self.slow_update_started.set()
                time.sleep(0.2)
            return super().execute(name, args)
        finally:
            with self._watch:
                self.in_flight -= 1
                self.finished.append((name, args["key"], beside))


def test_a_command_to_every_group_runs_alone_and_after_what_precedes_it():
    stores = []

    def service():
        stores.append(_WatchedStore())
        return stores[-1]

    with ThreadedPSMRCluster(KVSTORE_SPEC, service, mpl=4, num_replicas=1) as cluster:
        client = cluster.client()
        update = client.invoke_async("update", key=SLOW_KEY, value=b"slow")
        assert stores[0].slow_update_started.wait(5.0)
        # Serial: multicast to all four groups while one of them is busy.
        assert client.invoke("insert", key=1000, value=b"v").error is None
        assert update.result().error is None
    finished = stores[0].finished
    names = [(name, key) for name, key, _beside in finished]
    assert names.index(("update", SLOW_KEY)) < names.index(("insert", 1000))
    assert [beside for name, _key, beside in finished if name == "insert"] == [0]
