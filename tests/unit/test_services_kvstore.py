"""Unit tests for the key-value store service."""

import gc
import random
import tracemalloc

import pytest

from repro.btree import BPlusTree
from repro.common.errors import ServiceError
from repro.core.command import Command
from repro.core.descriptor import Keyed, Serial
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer, build_kvstore_spec


@pytest.fixture
def server():
    return KeyValueStoreServer(initial_keys=10)


def test_spec_declares_the_papers_four_commands():
    assert set(KVSTORE_SPEC.command_names()) == {"insert", "delete", "read", "update"}


def test_spec_routing_matches_papers_cdep():
    """Inserts/deletes depend on everything; reads/updates are keyed."""
    assert isinstance(KVSTORE_SPEC.routing("insert"), Serial)
    assert isinstance(KVSTORE_SPEC.routing("delete"), Serial)
    assert isinstance(KVSTORE_SPEC.routing("read"), Keyed)
    assert isinstance(KVSTORE_SPEC.routing("update"), Keyed)
    assert KVSTORE_SPEC.writes("update") and not KVSTORE_SPEC.writes("read")


def test_build_spec_returns_fresh_instance():
    assert build_kvstore_spec() is not KVSTORE_SPEC


def test_server_preloads_initial_keys(server):
    assert len(server) == 10
    err, value = server.execute("read", {"key": 3})
    assert err == KeyValueStoreServer.OK


def test_read_missing_key_returns_error(server):
    err, value = server.execute("read", {"key": 999})
    assert err == KeyValueStoreServer.ERR_NOT_FOUND
    assert value is None


def test_insert_then_read_roundtrip(server):
    assert server.execute("insert", {"key": 50, "value": b"hello"})[0] == server.OK
    assert server.execute("read", {"key": 50}) == (server.OK, b"hello")


def test_insert_duplicate_returns_error(server):
    assert server.execute("insert", {"key": 3, "value": b"x"})[0] == server.ERR_EXISTS


def test_update_existing_key(server):
    assert server.execute("update", {"key": 3, "value": b"new"})[0] == server.OK
    assert server.execute("read", {"key": 3})[1] == b"new"


def test_update_missing_key_returns_error(server):
    assert server.execute("update", {"key": 999, "value": b"x"})[0] == server.ERR_NOT_FOUND


def test_delete_existing_and_missing(server):
    assert server.execute("delete", {"key": 3})[0] == server.OK
    assert server.execute("delete", {"key": 3})[0] == server.ERR_NOT_FOUND
    assert len(server) == 9


def test_unknown_command_raises(server):
    with pytest.raises(ServiceError):
        server.execute("scan", {"key": 0})


def test_apply_wraps_result_in_response(server):
    response = server.apply(Command(uid=(1, 1), name="read", args={"key": 3}))
    assert response.uid == (1, 1)
    assert response.error is None
    failure = server.apply(Command(uid=(1, 2), name="read", args={"key": 999}))
    assert failure.error is not None


def test_snapshot_and_checksum_reflect_state(server):
    snapshot = server.snapshot()
    assert len(snapshot) == 10
    checksum_before = server.checksum()
    server.execute("update", {"key": 0, "value": b"changed"})
    assert server.checksum() != checksum_before


def test_two_servers_with_same_history_converge():
    first = KeyValueStoreServer(initial_keys=5)
    second = KeyValueStoreServer(initial_keys=5)
    history = [
        ("insert", {"key": 10, "value": b"a"}),
        ("update", {"key": 1, "value": b"b"}),
        ("delete", {"key": 2}),
        ("insert", {"key": 11, "value": b"c"}),
    ]
    for name, args in history:
        first.execute(name, args)
        second.execute(name, args)
    assert first.snapshot() == second.snapshot()
    assert first.checksum() == second.checksum()


def test_commands_executed_counter(server):
    server.execute("read", {"key": 1})
    server.execute("read", {"key": 2})
    assert server.commands_executed == 2


def test_each_delta_checkpoint_starts_where_the_last_one_ended(server):
    base = server.checkpoint()
    server.delta_checkpoint()
    server.execute("update", {"key": 2, "value": b"two"})
    first = server.delta_checkpoint()
    assert first["changes"] == [(2, b"two")]
    second = server.delta_checkpoint()
    assert second["changes"] == [] and second["deletions"] == []
    assert second["commands_executed"] == server.commands_executed
    replica = KeyValueStoreServer()
    replica.restore(base)
    replica.apply_delta(first)
    replica.apply_delta(second)
    assert replica.snapshot() == server.snapshot()


def test_a_key_deleted_and_recreated_across_cuts_restores_its_last_value(server):
    """Delete at one cut, re-insert at the next: each delta names the key
    on one side only, and the chain restores the re-inserted value."""
    base = server.checkpoint()
    server.reset_delta_tracking()
    server.execute("delete", {"key": 3})
    first = server.delta_checkpoint()
    assert first["deletions"] == [3] and first["changes"] == []
    server.execute("insert", {"key": 3, "value": b"back"})
    second = server.delta_checkpoint()
    assert second["changes"] == [(3, b"back")] and second["deletions"] == []
    replica = KeyValueStoreServer().restore(base)
    replica.apply_delta(first)
    assert 3 not in dict(replica.tree.items())
    replica.apply_delta(second)
    assert replica.snapshot() == server.snapshot()
    assert dict(replica.tree.items())[3] == b"back"


ORDER = 64
FILL = b"\x00" * 8


@pytest.mark.parametrize("n", [0, 1, ORDER - 1, ORDER, 10 * ORDER + 3, 100_000])
def test_the_built_seed_is_the_inserted_state(n):
    """The seed is built in one pass; it must be the state that inserting
    its keys one by one gives, with clean delta tracking, and stay a valid
    tree under inserts, deletes and updates in the middle of the key range
    and at its right edge."""
    server = KeyValueStoreServer(initial_keys=n, value=FILL, order=ORDER)
    inserted = BPlusTree(order=ORDER)
    for key in range(n):
        inserted.insert(key, FILL)
    assert server.tree.validate()
    assert server.snapshot() == dict(inserted.items())
    assert server.tree.height() <= inserted.height()
    delta = server.delta_checkpoint()
    assert delta["changes"] == [] and delta["deletions"] == []

    rng = random.Random(n)
    model = server.snapshot()
    hot = [key for edge in (n // 2, n) for key in range(edge - 40, edge + 40)]
    for step in range(2_000):
        key = rng.choice(hot)
        name = rng.choice(("insert", "delete", "update"))
        value = step.to_bytes(2, "big")
        err, _ = server.execute(name, {"key": key, "value": value})
        if name == "insert":
            assert (err == server.OK) == (key not in model)
            model.setdefault(key, value)
        elif name == "delete":
            assert (err == server.OK) == (key in model)
            model.pop(key, None)
        else:
            assert (err == server.OK) == (key in model)
            if key in model:
                model[key] = value
    assert server.tree.validate()
    assert server.snapshot() == model


def test_seeding_makes_no_per_key_temporaries():
    """Memory freed by the end of a seed stays behind as fragmented arenas
    in a replica process: a 100k-key seed must peak within 1 MB of what it
    keeps (one insert per key peaks 5.1 MB above it, a seed that goes
    through a list of ``(key, value)`` tuples 7.9 MB)."""
    gc.collect()
    tracemalloc.start()
    try:
        server = KeyValueStoreServer(initial_keys=100_000)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(server) == 100_000
    assert peak - final < 1_000_000
