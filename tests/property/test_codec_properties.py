"""Property suite: the binary codec round-trips its whole vocabulary.

The codec is the only serialisation on two paths — what crosses the wire
(command ``args``, response values, control dicts) and checkpoint-segment
payloads — so the contract is over the whole payload vocabulary: any value
in it must come back equal (and type-identical at the container level).
``pickle`` appears here only as the reference the codec is compared
against; nothing under ``src/`` imports it.
"""

import pickle
import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import codec
from repro.common.errors import CheckpointError
from repro.common.framing import HEADER_SIZE
from repro.core.command import Command
from repro.fs.memfs import Stat
from repro.multicast.group import ALL_GROUPS
from repro.runtime.transport import wire

# ----------------------------------------------------------------------
# Strategies: the checkpoint/command payload vocabulary
# ----------------------------------------------------------------------
scalars = (
    st.none()
    | st.booleans()
    | st.integers()  # unbounded: exercises the big-int path
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=40)
)

hashable = st.integers() | st.text(max_size=10) | st.binary(max_size=10)

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
uint32 = st.integers(min_value=0, max_value=2**32 - 1)
group_ids = uint32

#: The NetFS ``lstat`` response: the one dataclass with a tag of its own.
stats = st.builds(
    Stat,
    is_dir=st.booleans(), size=int64, mode=uint32, nlink=uint32,
    atime=st.floats(allow_nan=False), mtime=st.floats(allow_nan=False),
)


def containers(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(hashable, children, max_size=6)
        | st.sets(hashable, max_size=6)
        | st.frozensets(hashable, max_size=6)
    )


values = st.recursive(scalars | stats, containers, max_leaves=25)

#: The B+-tree delta shape: ``{changes, deletions}`` plus bookkeeping.
delta_payloads = st.fixed_dictionaries(
    {
        "order": st.integers(min_value=3, max_value=256),
        "changes": st.lists(
            st.tuples(st.integers(min_value=-(2**63), max_value=2**63 - 1),
                      st.binary(max_size=32)),
            max_size=30,
        ),
        "deletions": st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=30
        ),
        "commands_executed": st.integers(min_value=0),
    }
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_binary_round_trip(value):
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    assert decoded == value
    assert type(decoded) is type(value)


@settings(max_examples=200, deadline=None)
@given(values)
def test_binary_agrees_with_pickle_path(value):
    """The codec and the reference serialiser restore the same value."""
    via_binary = codec.decode(codec.encode(value))
    via_pickle = pickle.loads(pickle.dumps(value))
    assert via_binary == via_pickle == value


@settings(max_examples=150, deadline=None)
@given(delta_payloads)
def test_delta_checkpoint_shape_round_trip(payload):
    decoded = codec.decode(codec.encode(payload))
    assert decoded == payload
    # The pair/int runs must preserve container and element types exactly.
    assert type(decoded["changes"]) is list
    for original, restored in zip(payload["changes"], decoded["changes"]):
        assert type(restored) is tuple
        assert type(restored[0]) is int and type(restored[1]) is bytes
        assert restored == original
    assert decoded["deletions"] == payload["deletions"]


@settings(max_examples=200, deadline=None)
@given(
    uid=st.tuples(int64, int64),
    name=st.text(max_size=40),  # any unicode, the empty name included
    args=st.dictionaries(st.text(max_size=8), values, max_size=5),
    destinations=st.none()
    | st.just(ALL_GROUPS)
    | st.frozensets(group_ids, max_size=8),
    size_bytes=st.integers(min_value=0, max_value=2**32 - 1),
    submitted_at=st.floats(allow_nan=False),
)
def test_command_wire_round_trip(
    uid, name, args, destinations, size_bytes, submitted_at
):
    command = Command(
        uid=uid, name=name, args=args, size_bytes=size_bytes,
        destinations=destinations, submitted_at=submitted_at,
    )
    restored = codec.decode_command(codec.encode_command(command))
    assert restored == command
    assert type(restored.uid) is tuple
    assert type(restored.destinations) is type(command.destinations)
    assert type(restored.submitted_at) is float
    for key, value in command.args.items():
        assert type(restored.args[key]) is type(value)


#: What a command's ``args`` may hold: str keys (any unicode) and the
#: keys the fast path leaves to the generic codec, int64 and bytes values
#: next to ints past the int64 edges, bytearrays and nested values.
edge_ints = st.sampled_from(
    [-(2**63) - 1, -(2**63), -1, 0, 2**63 - 1, 2**63, 2**64, -(2**64)]
)
arg_keys = st.text(max_size=8) | st.integers() | st.binary(max_size=4)
#: A batch command's ``calls``: ``(name, args)`` tuples, between values
#: the fast path leaves to the generic codec (a first item that is no
#: call included).
batch_calls = st.lists(
    st.tuples(
        st.text(max_size=8),
        st.dictionaries(st.text(max_size=8), int64 | st.binary(max_size=40), max_size=3)
        | values,
    )
    | values,
    max_size=6,
)
arg_values = (
    int64 | edge_ints | st.integers() | st.binary(max_size=40)
    | st.binary(max_size=20).map(bytearray) | batch_calls | values
)
command_args = (
    st.dictionaries(arg_keys, arg_values, max_size=6)
    | st.dictionaries(st.text(max_size=8), int64 | st.binary(max_size=40), max_size=4)
    | values  # not a dict at all
)


def _generic_command(command):
    """:func:`codec.encode_command` spelled out without its fast paths:
    the fixed header, the ids, the name, ``args`` by ``encode_value``."""
    destinations = command.destinations
    if destinations is None:
        count, group_ids = 0xFFFE, b""
    elif destinations == ALL_GROUPS:
        count, group_ids = 0xFFFF, b""
    else:
        count = len(destinations)
        group_ids = struct.pack(">%dI" % count, *sorted(destinations))
    name = command.name.encode("utf-8")
    out = bytearray(
        struct.pack(
            ">BBqqIdHH", 0xC3, 2, *command.uid, command.size_bytes,
            command.submitted_at, count, len(name),
        )
    )
    out += group_ids + name
    codec.encode_value(command.args, out)
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(
    uid=st.tuples(int64, int64),
    name=st.text(max_size=12),
    args=command_args,
    destinations=st.none()
    | st.just(ALL_GROUPS)
    | st.frozensets(group_ids, max_size=4),
)
def test_the_command_fast_path_is_the_generic_encoding(
    uid, name, args, destinations
):
    command = Command(uid, name, args, destinations=destinations)
    encoded = codec.encode_command(command)
    assert encoded == _generic_command(command)
    # Twice: the second time every cache is warm.
    assert codec.encode_command(command) == encoded
    for data in (encoded, bytearray(encoded), memoryview(encoded)):
        restored = codec.decode_command(data)
        assert restored == command
        assert type(restored.args) is type(args)
        if type(args) is dict:
            for key, value in args.items():
                assert type(restored.args[key]) is type(value)


@settings(max_examples=100, deadline=None)
@given(uid=st.tuples(int64, int64), name=st.text(max_size=6), args=command_args)
def test_every_truncated_command_is_a_checkpoint_error(uid, name, args):
    encoded = codec.encode_command(Command(uid, name, args))
    for cut in range(len(encoded)):
        with pytest.raises(CheckpointError):
            codec.decode_command(encoded[:cut])


def test_hostile_names_and_keys_leave_every_cache_at_its_bound():
    memos = [
        memo for memo in vars(codec).values() if isinstance(memo, codec.Memo)
    ]
    assert memos
    for n in range(10_000):
        command = Command(
            (1, n), "name-%d" % n, {"key-%d" % n: n, "k\u00e9y-%d" % n: b"%d" % n},
            destinations=frozenset({n, n + 1}),
        )
        assert codec.decode_command(codec.encode_command(command)) == command
    sizes = [len(memo) for memo in memos]
    assert max(sizes) == codec.MEMO_ENTRIES  # they were fed ...
    assert all(size <= codec.MEMO_ENTRIES for size in sizes)  # ... and held


def test_threads_missing_at_once_keep_a_memo_at_its_bound():
    """Threads that miss together, one key short of the bound, store one
    key between them — in every round."""
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            together = threading.Barrier(threads, timeout=10)

            def make(key):
                if key >= codec.MEMO_ENTRIES:
                    together.wait()  # every thread inside ``make`` at once
                return -key

            memo = codec.Memo(make)
            for key in range(codec.MEMO_ENTRIES - 1):
                memo[key]
            found = []
            workers = [
                threading.Thread(
                    target=lambda key: found.append(memo[key]),
                    args=(codec.MEMO_ENTRIES + n,),
                )
                for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
            assert not any(worker.is_alive() for worker in workers)
            assert sorted(found) == [
                -(codec.MEMO_ENTRIES + n) for n in reversed(range(threads))
            ]
            assert len(memo) == codec.MEMO_ENTRIES
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# The fixed-layout frames: ``d`` (ordered messages) and ``r`` (responses)
# ----------------------------------------------------------------------
def _through_the_wire(message):
    return wire.decode_payload(wire.encode_message(message)[HEADER_SIZE:])


deliver_bodies = (
    st.binary(max_size=64)  # an encoded command, opaque to the frame
    | st.builds(  # a checkpoint marker or a shard-map update
        wire.make_cut, st.integers(min_value=0), st.none() | int64,
        st.booleans(),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    sequence=st.integers(min_value=0, max_value=2**63 - 1),
    destinations=st.just(ALL_GROUPS)
    | st.frozensets(group_ids, max_size=8).map(wire.encode_destinations),
    body=deliver_bodies,
)
def test_deliver_frame_round_trip(sequence, destinations, body):
    message = {"t": "d", "s": sequence, "dst": destinations, "b": body}
    restored = _through_the_wire(message)
    # One ordered message travels as a burst of one.
    assert restored == {"t": "d", "msgs": [(sequence, destinations, body)]}
    ((_s, restored_destinations, restored_body),) = restored["msgs"]
    assert type(restored_destinations) is type(destinations)
    assert type(restored_body) is type(body)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(int64, int64), values, st.none() | st.text(max_size=20)),
        max_size=6,
    ).map(tuple)
)
def test_responses_frame_round_trip(responses):
    message = {"t": "r", "resps": responses}
    restored = _through_the_wire(message)
    assert restored == message
    for (_, value, _), (uid, restored_value, _) in zip(responses, restored["resps"]):
        assert type(uid) is tuple
        assert type(restored_value) is type(value)


#: What a command answers: its fast path (``None``, bytes, str and a
#: batch's ``(value, error)`` pairs of those) next to every shape it
#: leaves to the generic codec — nested pairs, pair runs (a pair of two
#: ``(int, bytes)`` tuples is one), int runs, ``Stat``, lists of str.
plain_answers = st.none() | st.binary(max_size=24) | st.text(max_size=12)
int_bytes_pairs = st.tuples(int64, st.binary(max_size=8))
answer_pairs = (
    st.tuples(plain_answers, plain_answers)
    | st.tuples(int_bytes_pairs, int_bytes_pairs)
    | st.tuples(st.tuples(plain_answers, plain_answers), plain_answers)
    | st.tuples(stats | int64, plain_answers)
)
answers = (
    plain_answers
    | st.lists(st.tuples(plain_answers, plain_answers), max_size=20)
    | st.lists(answer_pairs | values, max_size=8)
    | st.lists(int_bytes_pairs, min_size=1, max_size=8)
    | st.lists(int64, min_size=1, max_size=8)
    | st.lists(st.text(max_size=6), max_size=6)
    | answer_pairs
    | stats
    | values
)


def _typed(value):
    """``value`` with the type of every list, tuple and leaf spelled out,
    so that equal-but-differently-typed decodes compare unequal."""
    if type(value) in (list, tuple):
        return type(value), [_typed(item) for item in value]
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(answers, st.binary(max_size=3))
def test_the_answer_fast_path_is_the_generic_encoding(answer, prefix):
    generic = bytearray(prefix)
    codec.encode_value(answer, generic)
    fast = bytearray(prefix)
    codec.encode_answer(answer, fast)
    assert fast == generic
    data = bytes(generic)
    decoded, end = codec.decode_answer(data, len(prefix))
    expected, expected_end = codec.decode_value(data, len(prefix))
    assert end == expected_end == len(data)
    assert _typed(decoded) == _typed(expected)


#: Leading bytes that no encoder writes as a value tag.
unknown_tags = st.sampled_from(
    sorted(set(range(256)) - set(b"NTFqIfsbaltSZdARK"))
)


@settings(max_examples=150, deadline=None)
@given(
    uid=st.tuples(int64, int64), answer=answers,
    error=st.none() | st.text(max_size=12), tag=unknown_tags,
)
def test_a_truncated_or_retagged_r_payload_is_a_wire_error(uid, answer, error, tag):
    payload = wire.encode_message(
        {"t": "r", "resps": ((uid, answer, error),)}
    )[HEADER_SIZE:]
    assert wire.decode_payload(memoryview(payload))["resps"][0][1:] == (answer, error)
    for cut in range(len(payload)):
        with pytest.raises(wire.WireError):
            wire.decode_payload(memoryview(payload)[:cut])
    value_at = 5 + 16  # the frame's head, then the response's uid
    encoded_answer = bytearray()
    codec.encode_value(answer, encoded_answer)
    tag_offsets = [value_at, value_at + len(encoded_answer)]
    if encoded_answer[0] == ord("l") and len(answer):
        tag_offsets.append(value_at + 5)  # the list's first item
    for offset in tag_offsets:
        retagged = bytearray(payload)
        retagged[offset] = tag
        with pytest.raises(wire.WireError):
            wire.decode_payload(memoryview(retagged))


def test_big_ints_and_frozensets_explicitly():
    payload = {
        "counter": 2**200 + 17,
        "negative": -(2**100),
        "groups": frozenset({1, 2, 3}),
        "nested": [frozenset({2**80}), (1, 2**70, b"x")],
    }
    assert codec.decode(codec.encode(payload)) == payload


def test_binary_is_smaller_on_kv_checkpoint_shapes():
    """The struct fast paths beat pickle on the shapes the store persists."""
    items = [(key * 7, b"\x01" * 8) for key in range(2000)]
    full = {"tree": {"order": 64, "items": items}, "commands_executed": 2000}
    delta = {
        "order": 64,
        "changes": items[:400],
        "deletions": list(range(0, 800, 2)),
        "commands_executed": 2400,
    }
    for payload in (full, delta):
        binary = codec.encode(payload)
        pickled = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert codec.decode(binary) == payload
        assert len(binary) < len(pickled)
