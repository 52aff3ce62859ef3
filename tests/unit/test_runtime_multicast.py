"""Unit tests for the threaded runtime's atomic multicast.

Covers the public drain API (``pending_count``/``is_drained``), the retained
log with its replay API, and atomic replica (de)registration — the building
blocks of crash recovery.
"""

import pytest

from repro.common import codec
from repro.common.checkpoint_store import CheckpointStore
from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.faults import FaultPlane
from repro.core.command import Command, Response
from repro.multicast.group import ALL_GROUPS
from repro.runtime import ThreadedPSMRCluster
from repro.runtime.multicast import LocalAtomicMulticast, encode_wire
from repro.runtime.transport.inproc import InprocTransport
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer


def make_multicast(mpl=2, replicas=(0, 1), retention=None):
    multicast = LocalAtomicMulticast(InprocTransport(mpl), retention=retention)
    queues = {
        replica_id: multicast.register_replica(replica_id)
        for replica_id in replicas
    }
    return multicast, queues


def drain(queue_):
    items = []
    while not queue_.empty():
        items.append(queue_.get_nowait())
    return items


def payloads(queue_):
    return [payload for _sequence, _destinations, payload in drain(queue_)]


class TestOneCodec:
    """Whether commands are encoded is read off the transport; the options
    that used to select it are gone, not ignored."""

    def test_the_in_process_transport_passes_commands_by_reference(self):
        multicast, queues = make_multicast(replicas=(0,))
        command = Command((1, 2), "read", {"key": 3}, destinations=frozenset({1}))
        multicast.multicast(frozenset({1}), command)
        assert drain(queues[0][1])[0][2] is command
        assert multicast.wire_bytes == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda tmp: LocalAtomicMulticast(InprocTransport(2), wire_codec="binary"),
            lambda tmp: LocalAtomicMulticast(InprocTransport(2), mpl=2),
            lambda tmp: LocalAtomicMulticast(
                InprocTransport(2), fault_plane=FaultPlane()
            ),
            lambda tmp: ThreadedPSMRCluster(
                KVSTORE_SPEC, KeyValueStoreServer, wire_codec="binary"
            ),
            lambda tmp: CheckpointStore(tmp, codec="pickle"),
            lambda tmp: codec.encode({}, codec="pickle"),
        ],
        ids=["multicast", "mpl", "fault-plane", "cluster", "store", "encode"],
    )
    def test_a_removed_option_is_a_type_error(self, tmp_path, build):
        with pytest.raises(TypeError):
            build(tmp_path)

    def test_encode_wire_keeps_the_contract_the_benchmark_imports(self):
        command = Command((1, 2), "read", {"key": 3}, destinations=frozenset({1}))
        assert encode_wire(command, "binary") == codec.encode_command(command)
        with pytest.raises(ConfigurationError):
            encode_wire(command, "pickle")


class TestDrainApi:
    def test_empty_multicast_is_drained(self):
        multicast, _queues = make_multicast()
        assert multicast.pending_count() == 0
        assert multicast.is_drained()

    def test_pending_count_counts_every_subscribed_queue(self):
        multicast, _queues = make_multicast(mpl=2, replicas=(0, 1))
        multicast.multicast((1,), "to-group-1")
        # Two replicas, one thread each subscribed to group 1.
        assert multicast.pending_count() == 2
        assert not multicast.is_drained()
        multicast.multicast(ALL_GROUPS, "to-everyone")
        assert multicast.pending_count() == 2 + 4

    def test_pending_count_per_replica(self):
        multicast, queues = make_multicast(mpl=2, replicas=(0, 1))
        multicast.multicast((2,), "x")
        assert multicast.pending_count(replica_id=0) == 1
        assert multicast.pending_count(replica_id=1) == 1
        drain(queues[0][2])
        assert multicast.pending_count(replica_id=0) == 0
        assert not multicast.is_drained()
        assert multicast.is_drained(replica_id=0)

    def test_is_drained_after_consuming(self):
        multicast, queues = make_multicast()
        multicast.multicast((1, 2), "sync")
        for replica_queues in queues.values():
            for queue_ in replica_queues.values():
                drain(queue_)
        assert multicast.is_drained()


class TestFaultPipeDrainAccounting:
    """Regression (issue 7, satellite 2): with a fault plane attached,
    copies the pipe is still holding — delayed, parked behind a
    partition, or buffered for in-order reassembly — must count as
    pending, or quiescence checks return early mid-delay-window."""

    def test_delayed_copies_count_as_pending(self):
        import time

        plane = FaultPlane(seed=1)
        plane.set_link(delay=1.0, delay_range=(0.2, 0.2))
        multicast = LocalAtomicMulticast(InprocTransport(1, plane))
        queues = multicast.register_replica(0)
        try:
            multicast.multicast((1,), "delayed")
            # The worker queue is empty — the copy is inside the pipe —
            # but the multicast must not report drained.
            assert queues[1].empty()
            assert multicast.pending_count() == 1
            assert multicast.pending_count(replica_id=0) == 1
            assert not multicast.is_drained()
            deadline = time.monotonic() + 5.0
            while queues[1].empty() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert queues[1].qsize() == 1
            drain(queues[1])
            assert multicast.pending_count() == 0
            assert multicast.is_drained()
        finally:
            multicast.shutdown()

    def test_partition_parks_copies_until_heal(self):
        import time

        plane = FaultPlane(seed=2, retransmit_backoff=0.005)
        multicast = LocalAtomicMulticast(InprocTransport(1, plane))
        queues = multicast.register_replica(0)
        try:
            plane.isolate("replica0")
            multicast.multicast((1,), "parked")
            time.sleep(0.05)
            assert multicast.pending_count() == 1, "partition must not drop"
            assert queues[1].empty()
            plane.heal()
            deadline = time.monotonic() + 5.0
            while queues[1].empty() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert queues[1].qsize() == 1
            drain(queues[1])
            assert multicast.pending_count() == 0
            assert plane.stats["blocked_retries"] > 0
        finally:
            multicast.shutdown()


class TestRegistration:
    def test_register_replica_rejects_duplicates(self):
        multicast, _queues = make_multicast(replicas=(0,))
        with pytest.raises(ConfigurationError):
            multicast.register_replica(0)
        # The first registration is untouched.
        assert multicast.replica_ids() == [0]
        multicast.multicast((1,), "still-delivered")
        assert _queues[0][1].qsize() == 1

    def test_unregister_stops_deliveries(self):
        multicast, queues = make_multicast(mpl=2, replicas=(0, 1))
        multicast.unregister_replica(1)
        multicast.multicast((1,), "after-unregister")
        assert multicast.pending_count(replica_id=1) == 0
        assert queues[0][1].qsize() == 1
        assert multicast.replica_ids() == [0]

    def test_unregister_unknown_replica_is_a_noop(self):
        multicast, _queues = make_multicast(replicas=(0,))
        multicast.unregister_replica(7)
        assert multicast.replica_ids() == [0]


class TestLogReplay:
    def test_replay_filters_by_sequence_and_delivering_thread(self):
        multicast, _queues = make_multicast(mpl=2, replicas=(0,))
        s0 = multicast.multicast((1,), "a")
        s1 = multicast.multicast((2,), "b")
        s2 = multicast.multicast(ALL_GROUPS, "c")
        assert s0 < s1 < s2
        everything = multicast.register_replica(1, after_sequence=-1)
        assert payloads(everything[1]) == ["a", "c"]
        assert payloads(everything[2]) == ["b", "c"]
        after_s0 = multicast.register_replica(2, after_sequence=s0)
        assert payloads(after_s0[1]) == ["c"]
        assert payloads(after_s0[2]) == ["b", "c"]
        after_s2 = multicast.register_replica(3, after_sequence=s2)
        assert payloads(after_s2[1]) == payloads(after_s2[2]) == []

    def test_register_replica_with_replay_prefills_exact_suffix(self):
        multicast, _queues = make_multicast(mpl=2, replicas=(0,))
        checkpoint_seq = multicast.multicast((1,), "before")
        multicast.multicast((1,), "after-1")
        multicast.multicast(ALL_GROUPS, "after-2")
        queues = multicast.register_replica(9, after_sequence=checkpoint_seq)
        assert [payload for _s, _d, payload in drain(queues[1])] == [
            "after-1",
            "after-2",
        ]
        assert [payload for _s, _d, payload in drain(queues[2])] == ["after-2"]
        # The new replica now receives live traffic too.
        multicast.multicast((2,), "live")
        assert queues[2].qsize() == 1

    def test_replayed_items_carry_original_sequence_numbers(self):
        multicast, _queues = make_multicast(mpl=2, replicas=(0,))
        sequences = [multicast.multicast((1,), f"m{i}") for i in range(3)]
        queues = multicast.register_replica(5, after_sequence=sequences[0])
        replayed = drain(queues[1])
        assert [sequence for sequence, _d, _p in replayed] == sequences[1:]


class TestRetention:
    def test_retention_bounds_the_log(self):
        multicast, _queues = make_multicast(replicas=(0,), retention=2)
        for i in range(5):
            multicast.multicast((1,), f"m{i}")
        assert multicast.log_size() == 2

    def test_replay_past_truncation_raises(self):
        multicast, _queues = make_multicast(replicas=(0,), retention=2)
        for i in range(5):
            multicast.multicast((1,), f"m{i}")
        with pytest.raises(RecoveryError):
            multicast.register_replica(3, after_sequence=0)
        # Replaying from inside the retained window still works.
        assert payloads(multicast.register_replica(3, after_sequence=3)[1]) == ["m4"]

    def test_truncate_log_explicitly(self):
        multicast, _queues = make_multicast(replicas=(0,))
        sequences = [multicast.multicast((1,), f"m{i}") for i in range(4)]
        multicast.truncate_log(sequences[1])
        assert multicast.log_size() == 2
        with pytest.raises(RecoveryError):
            multicast.register_replica(1, after_sequence=sequences[0])
        queues = multicast.register_replica(1, after_sequence=sequences[1])
        assert payloads(queues[1]) == ["m2", "m3"]

    def test_replay_boundary_at_min_retained(self):
        """``after_sequence == min_retained - 1`` is the last replayable
        point; one sequence earlier must raise RecoveryError."""
        multicast, _queues = make_multicast(replicas=(0,))
        sequences = [multicast.multicast((1,), f"m{i}") for i in range(6)]
        multicast.truncate_log(sequences[2])
        boundary = multicast.min_retained() - 1
        assert boundary == sequences[2]
        queues = multicast.register_replica(7, after_sequence=boundary)
        assert payloads(queues[1]) == ["m3", "m4", "m5"]
        with pytest.raises(RecoveryError):
            multicast.register_replica(8, after_sequence=boundary - 1)

    def test_latest_sequence_tracks_multicasts(self):
        multicast, _queues = make_multicast(replicas=(0,))
        assert multicast.latest_sequence() == -1
        assert multicast.min_retained() == 0
        last = None
        for i in range(3):
            last = multicast.multicast((1,), f"m{i}")
        assert multicast.latest_sequence() == last
        multicast.truncate_log(last)
        assert multicast.log_size() == 0
        assert multicast.min_retained() == last + 1
        # latest_sequence is unaffected by truncation.
        assert multicast.latest_sequence() == last


class _Router:
    """A bare ResponseRouter host: just the state the mixin requires."""

    def __init__(self):
        import threading

        from repro.runtime.cluster import ResponseRouter

        class Host(ResponseRouter):
            def __init__(self):
                self._lock = threading.Lock()
                self._waiters = {}
                self._responses = {}
                self.marker_boundary_violations = 0

        self.host = Host()


class TestResponseRouterAbandonment:
    """Regressions for the invoke_async/PendingInvocation timeout path.

    An HTTP request that times out at the frontend abandons its
    invocation.  The abandonment contract: the waiter registration is
    dropped immediately, the late response is dropped at the router (not
    stored forever), and a completion callback registered before the
    abandonment never fires afterwards.
    """

    def test_discard_drops_waiter_and_late_response(self):
        router = _Router().host
        router._register_waiter("uid")
        router._discard_waiter("uid")
        router._respond("uid", "late")
        assert router._waiters == {}
        assert router._responses == {}

    def test_discard_drops_raced_response(self):
        # The response lands first, then the client times out/abandons:
        # the stored response must not leak.
        router = _Router().host
        router._register_waiter("uid")
        router._respond("uid", "raced")
        assert router._responses == {"uid": "raced"}
        router._discard_waiter("uid")
        assert router._waiters == {}
        assert router._responses == {}

    def test_callback_fires_once_on_response(self):
        router = _Router().host
        seen = []
        router._register_waiter("uid")
        assert router._set_waiter_callback("uid", seen.append) is True
        router._respond("uid", "first")
        router._respond("uid", "duplicate")
        assert seen == ["first"]
        # Callback delivery hands the response over: nothing is stored.
        assert router._waiters == {}
        assert router._responses == {}

    def test_callback_with_raced_response_fires_immediately(self):
        router = _Router().host
        seen = []
        router._register_waiter("uid")
        router._respond("uid", "early")
        assert router._set_waiter_callback("uid", seen.append) is True
        assert seen == ["early"]
        assert router._responses == {}

    def test_callback_after_discard_is_refused_and_never_fires(self):
        router = _Router().host
        seen = []
        router._register_waiter("uid")
        router._discard_waiter("uid")
        assert router._set_waiter_callback("uid", seen.append) is False
        router._respond("uid", "late")
        assert seen == []

    def test_discard_after_callback_suppresses_delivery(self):
        router = _Router().host
        seen = []
        router._register_waiter("uid")
        router._set_waiter_callback("uid", seen.append)
        router._discard_waiter("uid")
        router._respond("uid", "late")
        assert seen == []
        assert router._waiters == {} and router._responses == {}

    def test_respond_many_mixes_callbacks_and_events(self):
        router = _Router().host
        seen = []
        for uid in ("a", "b", "c"):
            router._register_waiter(uid)
        router._set_waiter_callback("a", lambda value: seen.append(("a", value)))
        router._discard_waiter("b")
        router._respond_many([("a", 1), ("b", 2), ("c", 3)])
        assert seen == [("a", 1)]
        assert "b" not in router._responses
        assert router._responses == {"c": 3}


class TestAnsweredOnce:
    """A replica process's answers arrive as decoded ``r`` frames: one
    copy per replica, and only the first for a uid becomes a Response."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The Responses the router builds, in order."""
        from repro.runtime import cluster

        built = []

        def counting(*fields):
            built.append(fields)
            return Response(*fields)

        monkeypatch.setattr(cluster, "Response", counting)
        return built

    def test_the_second_replicas_copy_builds_no_response_and_fires_nothing(
        self, built
    ):
        router = _Router().host
        seen = []
        for uid in ((1, 1), (1, 2)):
            router._register_waiter(uid)
        router._set_waiter_callback((1, 1), seen.append)
        resps = (((1, 1), b"v", None), ((1, 2), None, "no such key"))
        router._respond_many(resps, 0)
        router._respond_many(resps, 1)  # the other replica's copy
        assert built == [((1, 1), b"v", None, 0), ((1, 2), None, "no such key", 0)]
        assert seen == [Response((1, 1), b"v", None, 0)]
        assert router._responses == {(1, 2): Response((1, 2), None, "no such key", 0)}
        assert router._take_response((1, 2)).replica_id == 0

    def test_an_answer_after_discard_is_dropped(self, built):
        router = _Router().host
        router._register_waiter((1, 1))
        router._discard_waiter((1, 1))
        router._respond_many((((1, 1), b"late", None),), 0)
        assert built == []
        assert router._waiters == {} and router._responses == {}


class TestPendingInvocationLifecycle:
    """End-to-end: abandoned HTTP-style invocations on a real cluster."""

    def _cluster(self):
        from repro.runtime import ThreadedPSMRCluster
        from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

        return ThreadedPSMRCluster(
            KVSTORE_SPEC,
            lambda: KeyValueStoreServer(initial_keys=4),
            mpl=2,
            num_replicas=2,
        )

    def test_abandoned_invocation_leaves_no_waiter_state(self):
        with self._cluster() as cluster:
            client = cluster.client()
            pending = client.invoke_async("read", key=1)
            pending.discard()
            # A second discard is idempotent.
            pending.discard()
            cluster.wait_for_quiescence()
            assert cluster._waiters == {}
            assert cluster._responses == {}

    def test_uncollected_invocations_leak_without_discard(self):
        # The leak the frontend bridge must avoid: registered waiters for
        # invocations nobody ever collects stay in the router forever.
        with self._cluster() as cluster:
            client = cluster.client()
            client.invoke_async("read", key=1)
            cluster.wait_for_quiescence()
            assert len(cluster._responses) == 1  # pinned until collected

    def test_callback_delivers_response_value(self):
        import threading

        with self._cluster() as cluster:
            client = cluster.client()
            done = threading.Event()
            seen = []
            pending = client.invoke_async("read", key=2)

            def on_done(response):
                seen.append(response)
                done.set()

            assert pending.add_done_callback(on_done) is True
            assert done.wait(5.0)
            assert seen[0].value == b"\x00" * 8
            cluster.wait_for_quiescence()
            assert cluster._waiters == {}
            assert cluster._responses == {}

    def test_result_after_timeout_discards_registration(self):
        with self._cluster() as cluster:
            client = cluster.client()
            # An invocation that was already collected raises KeyError on a
            # second result() call instead of hanging.
            pending = client.invoke_async("read", key=0)
            pending.result(timeout=5.0)
            with pytest.raises(KeyError):
                pending.result(timeout=0.01)
