"""Property suite: delta-checkpoint chains are equivalent to full checkpoints.

The recovery contract behind incremental checkpoints: for *any* operation
history with full and delta checkpoints interleaved at arbitrary points,

* restoring base + delta chain reproduces the live replica's state exactly
  (at every checkpoint cut, not just the last one);
* it reproduces the same state as restoring a full checkpoint taken at the
  same cut;
* the restored replica then behaves identically to the live one on any
  subsequent command sequence (so both runtimes may replay the log suffix
  on top of a chain restore);
* a joiner holding the chain up to any cut reaches the tip by applying
  only the deltas after it (the recovery ladder's chain-suffix rung);
* every entry survives the codec, which both the durable store and the
  process runtime's wire put it through.

Each test drives a service with random op sequences split into segments; a
checkpoint is taken after every segment, with a randomly chosen kind —
deltas chain off the last full exactly as the runtimes' ``full_every``
policy produces, but in arbitrary interleavings rather than a fixed cadence.
"""

from hypothesis import example, given, settings, strategies as st

from repro.btree import BPlusTree
from repro.common import codec
from repro.common.checkpoint import restore_chain
from repro.common.errors import ServiceError
from repro.services.kvstore import KeyValueStoreServer
from repro.services.netfs import NetFSServer

# ----------------------------------------------------------------------
# Shared strategy helpers
# ----------------------------------------------------------------------
#: Each segment is (operations, want_delta): run the ops, then checkpoint —
#: a delta when requested and a base exists, else a full.
def segments_of(operations, max_segments=5):
    return st.lists(
        st.tuples(operations, st.booleans()), min_size=1, max_size=max_segments
    )


def take_checkpoint(service, chain, want_delta):
    """Extend ``chain`` the way the runtimes do at a periodic marker."""
    if chain and want_delta:
        chain.append({"kind": "delta", "payload": service.delta_checkpoint()})
    else:
        payload = service.checkpoint()
        service.reset_delta_tracking()
        chain[:] = [{"kind": "full", "payload": payload}]
    return chain


# ----------------------------------------------------------------------
# Key-value store service
# ----------------------------------------------------------------------
kv_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "read", "update"]),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=40,
)


def run_kv(server, commands, base_step=0):
    outputs = []
    for step, (name, key) in enumerate(commands, start=base_step):
        args = {"key": key}
        if name in ("insert", "update"):
            args["value"] = bytes([step % 256, (step // 256) % 256])
        outputs.append(server.execute(name, args))
    return outputs


@settings(max_examples=60, deadline=None)
@given(segments=segments_of(kv_operations), suffix=kv_operations)
def test_kvstore_chain_equals_live_and_full(segments, suffix):
    live = KeyValueStoreServer(initial_keys=6)
    chain = []
    step = 0
    for operations, want_delta in segments:
        run_kv(live, operations, base_step=step)
        step += len(operations)
        take_checkpoint(live, chain, want_delta)
        # At every cut: base + deltas == live == a fresh full checkpoint.
        from_chain = restore_chain(KeyValueStoreServer(), chain)
        from_full = KeyValueStoreServer().restore(live.checkpoint())
        assert from_chain.snapshot() == live.snapshot() == from_full.snapshot()
        assert from_chain.checksum() == live.checksum()
        assert from_chain.commands_executed == live.commands_executed
    # The chain restore is behaviourally indistinguishable from the live
    # replica: identical outputs and states over an arbitrary suffix.
    restored = restore_chain(KeyValueStoreServer(), chain)
    assert run_kv(restored, suffix, base_step=step) == run_kv(
        live, suffix, base_step=step
    )
    assert restored.snapshot() == live.snapshot()
    restored.tree.validate()


# ----------------------------------------------------------------------
# Raw B+-tree (the state layer under the key-value store)
# ----------------------------------------------------------------------
tree_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "upsert"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=60,
)


def run_tree(tree, operations, base_step=0):
    for step, (name, key) in enumerate(operations, start=base_step):
        value = bytes([step % 256])
        try:
            getattr(tree, name)(key, value) if name != "delete" else tree.delete(key)
        except ServiceError:
            pass
    return tree


@settings(max_examples=60, deadline=None)
@given(segments=segments_of(tree_operations), order=st.sampled_from([4, 5, 32]))
def test_btree_delta_chain_equals_live(segments, order):
    live = BPlusTree(order=order)
    base = None
    deltas = []
    step = 0
    for operations, want_delta in segments:
        run_tree(live, operations, base_step=step)
        step += len(operations)
        if base is not None and want_delta:
            deltas.append(live.delta())
        else:
            base = live.checkpoint()
            live.clear_delta_tracking()
            deltas = []
        restored = BPlusTree(order=order).restore(base)
        for delta in deltas:
            restored.apply_delta(delta)
        assert list(restored.items()) == list(live.items())
        assert len(restored) == len(live)
        restored.validate()


#: An interval over few keys, so it often deletes, re-creates or rewrites
#: a key the base holds.
tree_churn = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "upsert"]),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    base_keys=st.sets(st.integers(min_value=0, max_value=12), min_size=4),
    operations=tree_churn,
)
def test_btree_delta_records_the_net_change(base_keys, operations):
    """A delta names every key whose value changed since the mark, with its
    current value, and lists a deletion only for a key that is gone."""
    live = BPlusTree(order=4)
    for key in sorted(base_keys):
        live.insert(key, b"base")
    before = dict(live.items())
    live.clear_delta_tracking()
    run_tree(live, operations, base_step=1)
    after = dict(live.items())
    delta = live.delta()
    changes = dict(delta["changes"])
    deletions = set(delta["deletions"])
    assert not set(changes) & deletions
    assert all(after[key] == value for key, value in changes.items())
    assert not deletions & after.keys()
    for key in before.keys() | after.keys():
        if before.get(key) != after.get(key):
            assert key in changes if key in after else key in deletions


# ----------------------------------------------------------------------
# NetFS service (covers the in-memory file system, fd table included)
# ----------------------------------------------------------------------
fs_paths = st.sampled_from(["/a", "/b", "/d", "/d/x", "/d/y"])
fs_calls = st.one_of(
    st.tuples(
        st.sampled_from(
            [
                "mkdir", "mknod", "create", "unlink", "rmdir", "open",
                "opendir", "write", "read", "lstat", "readdir", "access",
                "utimens",
            ]
        ),
        fs_paths,
    ),
    # Descriptor churn: release both valid and invalid fds (the error paths
    # must be deterministic across a restore too).
    st.tuples(st.just("release"), st.integers(min_value=3, max_value=12)),
)
fs_operations = st.lists(fs_calls, max_size=40)

#: A delta interval that opens a descriptor, then a suffix that opens
#: another: a restore that loses the delta's ``next_fd`` hands the
#: suffix's open the number the delta's descriptor already holds.
FD_OPENED_IN_A_DELTA = example(
    segments=[([("mknod", "/a")], False), ([("open", "/a")], True)],
    suffix=[("open", "/a")],
)


def run_netfs(server, commands, base_step=0):
    outputs = []
    for step, (name, operand) in enumerate(commands, start=base_step):
        if name == "release":
            args = {"fd": operand}
        else:
            args = {"path": operand, "now": float(step)}
        if name == "write":
            args["data"] = bytes([step % 256]) * 3
            args["offset"] = step % 5
        if name == "utimens":
            args["atime"] = float(step)
            args["mtime"] = float(step) + 0.5
        response = server.apply(
            type("C", (), {"uid": step, "name": name, "args": args})
        )
        outputs.append((response.value, response.error))
    return outputs


@settings(max_examples=60, deadline=None)
@given(segments=segments_of(fs_operations), suffix=fs_operations)
@FD_OPENED_IN_A_DELTA
def test_netfs_chain_equals_live_and_full(segments, suffix):
    live = NetFSServer()
    chain = []
    step = 0
    for operations, want_delta in segments:
        run_netfs(live, operations, base_step=step)
        step += len(operations)
        take_checkpoint(live, chain, want_delta)
        from_chain = restore_chain(NetFSServer(), chain)
        from_full = NetFSServer().restore(live.checkpoint())
        assert from_chain.snapshot() == live.snapshot() == from_full.snapshot()
        assert from_chain.fs.open_descriptors() == live.fs.open_descriptors()
        assert from_chain.commands_executed == live.commands_executed
    restored = restore_chain(NetFSServer(), chain)
    assert run_netfs(restored, suffix, base_step=step) == run_netfs(
        live, suffix, base_step=step
    )
    assert restored.snapshot() == live.snapshot()
    assert restored.fs.open_descriptors() == live.fs.open_descriptors()


# ----------------------------------------------------------------------
# The chain-suffix rung and the codec
# ----------------------------------------------------------------------
def cut_history(service, run, segments):
    """Drive ``service`` through ``segments``, checkpointing after each.

    Returns ``(chain, states, step)``: the final chain, the live snapshot
    at each of its cuts, and the next step number.
    """
    chain, states, step = [], [], 0
    for operations, want_delta in segments:
        run(service, operations, step)
        step += len(operations)
        take_checkpoint(service, chain, want_delta)
        del states[len(chain) - 1:]
        states.append(service.snapshot())
    return chain, states, step


def through_the_codec(chain):
    """Each entry as a durable segment or a wire frame carries it."""
    return [codec.decode(codec.encode(entry)) for entry in chain]


@settings(max_examples=40, deadline=None)
@given(segments=segments_of(kv_operations), suffix=kv_operations)
def test_kvstore_joiner_at_any_cut_catches_up_on_the_chain_suffix(segments, suffix):
    live = KeyValueStoreServer(initial_keys=6)
    chain, states, step = cut_history(live, run_kv, segments)
    for cut in range(len(chain)):
        joiner = restore_chain(KeyValueStoreServer(), chain[:cut + 1])
        assert joiner.snapshot() == states[cut]
        for entry in chain[cut + 1:]:
            joiner.apply_delta(entry["payload"])
        assert joiner.snapshot() == live.snapshot()
        assert joiner.commands_executed == live.commands_executed
    assert run_kv(joiner, suffix, base_step=step) == run_kv(
        live, suffix, base_step=step
    )
    assert joiner.snapshot() == live.snapshot()
    joiner.tree.validate()


@settings(max_examples=40, deadline=None)
@given(segments=segments_of(fs_operations), suffix=fs_operations)
@FD_OPENED_IN_A_DELTA
def test_netfs_joiner_at_any_cut_catches_up_on_the_chain_suffix(segments, suffix):
    live = NetFSServer()
    chain, states, step = cut_history(live, run_netfs, segments)
    for cut in range(len(chain)):
        joiner = restore_chain(NetFSServer(), chain[:cut + 1])
        assert joiner.snapshot() == states[cut]
        for entry in chain[cut + 1:]:
            joiner.apply_delta(entry["payload"])
        assert joiner.snapshot() == live.snapshot()
        assert joiner.fs.open_descriptors() == live.fs.open_descriptors()
        assert joiner.commands_executed == live.commands_executed
    assert run_netfs(joiner, suffix, base_step=step) == run_netfs(
        live, suffix, base_step=step
    )
    assert joiner.snapshot() == live.snapshot()


@settings(max_examples=40, deadline=None)
@given(segments=segments_of(kv_operations), suffix=kv_operations)
def test_kvstore_chain_survives_the_codec(segments, suffix):
    live = KeyValueStoreServer(initial_keys=6)
    chain, _states, step = cut_history(live, run_kv, segments)
    restored = restore_chain(KeyValueStoreServer(), through_the_codec(chain))
    assert restored.snapshot() == live.snapshot()
    assert restored.commands_executed == live.commands_executed
    assert run_kv(restored, suffix, base_step=step) == run_kv(
        live, suffix, base_step=step
    )
    assert restored.snapshot() == live.snapshot()
    restored.tree.validate()


@settings(max_examples=40, deadline=None)
@given(segments=segments_of(fs_operations), suffix=fs_operations)
@FD_OPENED_IN_A_DELTA
def test_netfs_chain_survives_the_codec(segments, suffix):
    live = NetFSServer()
    chain, _states, step = cut_history(live, run_netfs, segments)
    restored = restore_chain(NetFSServer(), through_the_codec(chain))
    assert restored.snapshot() == live.snapshot()
    assert restored.fs.open_descriptors() == live.fs.open_descriptors()
    assert restored.commands_executed == live.commands_executed
    assert run_netfs(restored, suffix, base_step=step) == run_netfs(
        live, suffix, base_step=step
    )
    assert restored.snapshot() == live.snapshot()
    assert restored.fs.open_descriptors() == live.fs.open_descriptors()
