"""The batch command: a client batch is ordered as one command per
destination group, and every call still answers as if run alone, in
call order.

``POST /kv/batch`` hands its ops to ``ClusterBackend.submit_batch``; the
C-G function buckets the keyed ops per group, and a call to every group
(``insert`` / ``delete``) goes alone, closing the buckets before it.
These tests check the answers and the replicas' states against a dict
model, count the ordered messages, run a batch on replica processes, and
re-route a batch whose routing a shard-map switch made stale.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core.cg import CGFunction
from repro.core.command import BATCH
from repro.core.descriptor import CommandDescriptor, Keyed, ServiceSpec
from repro.frontend import ClusterBackend, create_app
from repro.frontend.models import encode_value
from repro.frontend.testing import AsgiClient
from repro.multicast.sharding import ShardMap
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

#: Keys ``0..KEYS-1``; the first half is preloaded.
KEYS = 12
INITIAL = b"\x00" * 8


def _cluster(**options):
    return ThreadedPSMRCluster(
        KVSTORE_SPEC, lambda: KeyValueStoreServer(initial_keys=KEYS // 2), **options
    )


def _model():
    return {key: INITIAL for key in range(KEYS // 2)}


def _expect(model, name, key, value):
    """Apply one call to the dict model; its ``(ok, error, value)``."""
    if name == "read":
        if key in model:
            return True, None, model[key]
        return False, "not_found", None
    if name == "insert":
        if key in model:
            return False, "exists", None
        model[key] = value
        return True, None, None
    if name == "update":
        if key not in model:
            return False, "not_found", None
        model[key] = value
        return True, None, None
    if key not in model:  # delete
        return False, "not_found", None
    del model[key]
    return True, None, None


def _post_batch(app, ops):
    async def post():
        client = AsgiClient(app)
        try:
            return await client.post("/kv/batch", json={"ops": ops})
        finally:
            await client.aclose()

    return asyncio.run(post())


def _check_results(model, ops, response):
    assert response.status_code == 200, response.text
    results = response.json()["results"]
    assert len(results) == len(ops)
    for op, result in zip(ops, results):
        value = None if op.get("value") is None else op["value"].encode()
        ok, error, read = _expect(model, op["op"], op["key"], value)
        assert (result["ok"], result["error"]) == (ok, error), (op, result)
        if read is not None:
            assert encode_value(result["value"], result["encoding"]) == read


calls = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "update", "update", "insert", "delete"]),
        st.integers(min_value=0, max_value=KEYS - 1),
        st.text(alphabet="abcxyz", min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(calls, min_size=1, max_size=3))
def test_batches_answer_and_apply_like_the_calls_in_order(batches):
    """Reads, writes, repeats of one key and calls to every group, mixed:
    every answer and the replicas' final state are the dict model's."""
    model = _model()
    with _cluster(mpl=4) as cluster:
        app = create_app(kv_backend=ClusterBackend(cluster))
        for batch in batches:
            ops = [
                {"op": name, "key": key}
                if name in ("read", "delete")
                else {"op": name, "key": key, "value": text}
                for name, key, text in batch
            ]
            _check_results(model, ops, _post_batch(app, ops))
        snapshots = cluster.replica_snapshots()
        assert app.kv_backend.stats()["completed"] == sum(map(len, batches))
    assert snapshots == [model, model]


def test_a_keyed_batch_is_one_ordered_message_per_group():
    ops = [
        {"op": "read" if key % 3 else "update", "key": key % KEYS, "value": "v"}
        for key in range(32)
    ]
    for op in ops:
        if op["op"] == "read":
            del op["value"]
    model = _model()
    with _cluster(mpl=4) as cluster:
        app = create_app(kv_backend=ClusterBackend(cluster))
        before = cluster.multicast.messages_multicast
        response = _post_batch(app, ops)
        ordered = cluster.multicast.messages_multicast - before
        _check_results(model, ops, response)
        assert cluster.replica_snapshots() == [model, model]
    assert ordered <= 4
    assert app.kv_backend.stats() == {"submitted": 32, "completed": 32, "timed_out": 0}


def test_a_call_to_every_group_closes_the_buckets_before_it():
    cg = CGFunction(KVSTORE_SPEC, 4)
    groups = {key: cg.group_of_key(key) for key in range(KEYS)}
    same = [key for key in range(KEYS) if groups[key] == groups[0]]
    calls = [
        ("read", {"key": same[0]}),
        ("update", {"key": same[1], "value": b"x"}),
        ("insert", {"key": 99, "value": b"y"}),  # every group
        ("read", {"key": same[0]}),
        ("read", {"key": next(k for k in range(KEYS) if groups[k] != groups[0])}),
        ("update", {"key": same[1], "value": b"z"}),
    ]
    assert cg.batches(calls) == [[0, 1], [2], [3, 5], [4]]
    destinations, version = cg.route(BATCH, {"calls": [calls[0], calls[1]]})
    assert (destinations, version) == (frozenset({groups[0]}), None)
    assert cg.route(BATCH, {"calls": calls[:3]}) == ("ALL", None)
    two = cg.route(BATCH, {"calls": [calls[3], calls[4]]})[0]
    assert two == frozenset({groups[0], groups[calls[4][1]["key"]]})


def test_the_batch_name_is_reserved():
    with pytest.raises(ConfigurationError, match="reserved"):
        ServiceSpec("svc", [CommandDescriptor(BATCH, routing=Keyed(lambda args: 0))])


def test_a_stale_batch_is_rerouted_as_a_whole():
    """A shard-map switch is ordered between the routing of a bucket and
    its ordering: the sequencer rejects the stale routing, and the batch
    is routed again, as a whole, to the two groups its keys now span."""
    old = ShardMap.initial(4, key_space=16)  # keys 0-3 are group 1's
    new = ShardMap(1, (0, 2, 4, 8, 12), (1, 2, 2, 3, 4))  # keys 2-3 move to 2
    calls = [("update", {"key": key, "value": b"v%d" % key}) for key in range(4)]
    calls += [("read", {"key": key}) for key in range(4)]
    with _cluster(mpl=4, shard_map=old) as cluster:
        assert cluster.cg.batches(calls) == [list(range(8))]
        multicast = cluster.multicast.multicast
        routed = []

        def switching(destinations, payload, shard_version=None):
            routed.append(destinations)
            if len(routed) == 1:
                cluster.update_shard_map(new)
            return multicast(destinations, payload, shard_version=shard_version)

        cluster.multicast.multicast = switching
        backend = ClusterBackend(cluster)

        async def run():
            return await backend.submit_batch(calls, timeout=10.0)

        answers = asyncio.run(run())
        assert routed == [frozenset({1}), frozenset({1, 2})]
        assert cluster.multicast.stale_routings_rejected == 1
        expected = {key: b"v%d" % key for key in range(4)}
        assert answers == [(None, None)] * 4 + [(expected[key], None) for key in range(4)]
        model = {**_model(), **expected}
        assert cluster.replica_snapshots() == [model, model]


def test_a_batch_on_the_process_runtime_answers_in_one_r_frame_entry():
    ops = [{"op": "update", "key": key, "value": "p%d" % key} for key in range(KEYS)]
    ops += [{"op": "read", "key": key} for key in range(KEYS)]
    ops += [{"op": "delete", "key": 0}, {"op": "read", "key": 0}]
    model = _model()
    with ProcessPSMRCluster(
        service="kvstore", service_args={"initial_keys": KEYS // 2}, mpl=4,
    ) as cluster:
        answered = []
        respond = cluster._respond_many

        def recording(responses, replica_id=None):
            answered.extend(responses)
            return respond(responses, replica_id)

        cluster._respond_many = recording
        app = create_app(kv_backend=ClusterBackend(cluster))
        _check_results(model, ops, _post_batch(app, ops))
        assert cluster.replica_snapshots() == [model, model]
    lists = [value for _uid, value, _error in answered if isinstance(value, list)]
    assert lists, "no r-frame entry carried a batch's answers"
    assert all(
        isinstance(pair, tuple) and len(pair) == 2 for value in lists for pair in value
    )
    assert sum(map(len, lists)) == 2 * (2 * KEYS)  # both replicas, the keyed calls
