"""The idle rule: a replica's receive loop runs an idle worker's leading
parallel-mode commands itself, and that changes no order.

Random bursts of single-group commands, multi-group commands and
checkpoint cuts are filed with a :class:`ReplicaInbox` whose runs go to
:meth:`ReplicaEngine.deliver`, wired as a replica process wires them
once its workers start.  Some commands sleep, so a worker is busy at a
random point while the next burst is handed over, and some bursts are
followed by a pause, so it is idle at others.  Whatever ran where:

* each group applies its commands in stream order, one at a time — so a
  multi-group command runs after everything before it in its groups and
  before everything after;
* each command is answered exactly once;
* what the receive loop ran of a run is the run's leading parallel-mode
  commands, answered in one ``on_responses`` call (one ``r`` frame);
* a cut's snapshot equals a sequential replay of the stream up to it.
"""

import collections
import threading
import time

from hypothesis import given, settings, strategies as st

from repro.core.command import Command, Response
from repro.multicast.group import ALL_GROUPS
from repro.runtime.engine import ReplicaEngine
from repro.runtime.transport import wire
from repro.runtime.transport.inproc import ReplicaInbox

#: How long a sleeping command holds the thread that runs it.
SLEEP_S = 0.001


class _Recorder:
    """Each group's log of the uids applied to it.  A command's args name
    its groups and whether it sleeps; two commands of one group running at
    once are recorded as an overlap."""

    def __init__(self, mpl):
        self.logs = {group: [] for group in range(1, mpl + 1)}
        self.running = collections.Counter()
        self.overlaps = []
        self.lock = threading.Lock()

    def apply(self, command):
        groups = command.args["groups"]
        with self.lock:
            for group in groups:
                if self.running[group]:
                    self.overlaps.append((command.uid, group))
                self.running[group] += 1
        if command.args["sleep"]:
            time.sleep(SLEEP_S)
        with self.lock:
            for group in groups:
                self.logs[group].append(command.uid)
                self.running[group] -= 1
        return Response(command.uid)

    def checkpoint(self):
        with self.lock:
            return {group: tuple(log) for group, log in self.logs.items()}


@st.composite
def streams(draw):
    """``(mpl, bursts)``: each burst a list of ``("one", group, sleep)``,
    ``("multi", groups, sleep)`` or ``("cut",)``, and a pause flag."""
    mpl = draw(st.integers(2, 3))
    group = st.integers(1, mpl)
    one = st.tuples(st.just("one"), group, st.booleans())
    multi = st.tuples(
        st.just("multi"),
        st.sets(group, min_size=2).map(lambda groups: tuple(sorted(groups))),
        st.booleans(),
    )
    item = st.one_of(one, one, one, multi, st.just(("cut",)))
    bursts = draw(st.lists(
        st.tuples(st.lists(item, min_size=1, max_size=8), st.booleans()),
        min_size=1, max_size=8,
    ))
    return mpl, bursts


def _items(bursts):
    """The bursts as ordered ``(sequence, destinations, payload)`` items."""
    sequence, cuts, filed = 0, 0, []
    for burst, pause in bursts:
        items = []
        for kind, *rest in burst:
            if kind == "cut":
                cuts += 1
                items.append((sequence, ALL_GROUPS, wire.make_cut(cuts, None, False)))
            else:
                groups, sleep = rest
                groups = (groups,) if kind == "one" else groups
                items.append((sequence, groups, Command(
                    (1, sequence), "op", {"groups": groups, "sleep": sleep},
                    destinations=frozenset(groups),
                )))
            sequence += 1
        filed.append((items, pause))
    return filed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(streams())
def test_the_receive_loop_changes_no_order(stream):
    mpl, bursts = stream
    filed = _items(bursts)
    stream_items = [item for items, _pause in filed for item in items]
    commands = [item for item in stream_items if not isinstance(item[2], dict)]

    feeder = threading.get_ident()
    answered = []  # every uid answered, from any thread
    feeder_calls = []  # the receive loop's on_responses calls, as uid lists
    cuts = []  # (cut sequence, snapshot taken there, error)
    lock = threading.Lock()
    all_answered = threading.Event()

    def on_responses(pairs):
        uids = [uid for uid, _response in pairs]
        with lock:
            answered.extend(uids)
            if threading.get_ident() == feeder:
                feeder_calls.append(uids)
            if len(answered) >= len(commands):
                all_answered.set()

    def on_cut_done(report):
        cuts.append((report["sequence"], engine.chain[-1]["payload"], report["error"]))

    recorder = _Recorder(mpl)
    engine = ReplicaEngine(
        0, mpl, lambda: recorder, [], None, None, 10.0, on_responses, on_cut_done
    )
    inbox = ReplicaInbox(mpl)
    engine.start(inbox.queues)
    runs = []  # (thread index, run, the receive loop's answers meanwhile)

    def deliver(index, run):
        run, before = list(run), len(feeder_calls)
        engine.deliver(index, run)
        runs.append((index, run, feeder_calls[before:]))

    inbox.hand = deliver
    try:
        for items, pause in filed:
            inbox.accept(items)
            inbox.flush()
            if pause:
                time.sleep(4 * SLEEP_S)
        assert not commands or all_answered.wait(10.0)
    finally:
        engine.stop()
    assert not any(thread.is_alive() for thread in engine.threads)

    # One group at a time, each in stream order.
    assert recorder.overlaps == []
    for group, log in recorder.logs.items():
        assert log == [
            command.uid for _s, groups, command in commands if group in groups
        ]
    # Every command answered once.
    assert sorted(answered) == sorted(command.uid for _s, _d, command in commands)
    # What the receive loop ran: a run's leading parallel-mode commands,
    # answered together.
    for index, run, calls in runs:
        assert len(calls) <= 1
        ran = calls[0] if calls else []
        assert ran == [item[2].uid for item in run[:len(ran)]]
        assert all(item[1] == (index,) for item in run[:len(ran)])
        if ran and len(ran) < len(run):
            head = run[len(ran)]
            assert isinstance(head[2], dict) or len(head[1]) > 1
    assert sum(len(calls) for _i, _r, calls in runs) == len(feeder_calls)
    # A cut's snapshot is the stream's replay up to it.
    cut_sequences = [s for s, _d, payload in stream_items if isinstance(payload, dict)]
    assert [sequence for sequence, _state, _error in cuts] == cut_sequences
    for sequence, state, error in cuts:
        assert error is None
        assert state == {
            group: tuple(
                command.uid for s, groups, command in commands
                if s < sequence and group in groups
            )
            for group in range(1, mpl + 1)
        }
