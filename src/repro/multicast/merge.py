"""Deterministic merge of multiple ordered streams at a subscriber.

A P-SMR worker thread delivers from two streams (its own group and
``g_all``); classic SMR and sP-SMR replicas deliver from one.  When a
subscriber consumes several streams, every replica must interleave them the
same way — otherwise two threads on different replicas could disagree on
whether a ``g_all`` command comes before or after a ``g_i`` command, which
would break consistency for dependent commands.

Two policies are provided (see the merge ablation benchmark):

``timestamp``
    Batches carry the coordinator's sealing timestamp.  A batch is
    deliverable once every other subscribed stream is known (through a later
    batch or skip) not to produce anything earlier.  This is the
    default: fast streams are never throttled by slow ones, they only pay a
    bounded waiting latency when some stream is idle.

``round_robin``
    Multi-Ring Paxos style: subscribers deliver one batch (or skip) from
    every stream per round, in group-id order.  Simple, but a busy stream
    cannot outpace the skip rate of an idle one.
"""

from dataclasses import dataclass
from collections import deque

from repro.common.errors import ConfigurationError, ProtocolError


@dataclass(frozen=True)
class SkipToken:
    """An empty filler emitted by an idle coordinator (round-robin policy)."""

    stream_id: int
    sequence: int


class MergeBuffer:
    """Subscriber-side buffer producing a deterministic interleaving of streams."""

    def __init__(self, stream_ids, policy="timestamp"):
        if policy not in ("timestamp", "round_robin"):
            raise ConfigurationError(f"unknown merge policy: {policy!r}")
        if not stream_ids:
            raise ConfigurationError("a merge buffer needs at least one stream")
        self.policy = policy
        self.stream_ids = sorted(set(stream_ids))
        self._queues = {sid: deque() for sid in self.stream_ids}
        #: Latest timestamp known per stream (batches and skips advance it).
        self._horizon = {sid: -1.0 for sid in self.stream_ids}
        #: Next expected per-stream sequence number (round-robin policy).
        self._next_seq = {sid: 0 for sid in self.stream_ids}
        self._round = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def offer(self, stream_id, sequence, timestamp, item):
        """Add a decided batch from ``stream_id`` to the buffer."""
        self._check_stream(stream_id)
        queue = self._queues[stream_id]
        if queue and queue[-1][0] > sequence:
            raise ProtocolError("stream sequence went backwards")
        queue.append((sequence, timestamp, item))
        if timestamp > self._horizon[stream_id]:
            self._horizon[stream_id] = timestamp

    def offer_skip(self, stream_id, sequence, timestamp):
        """Add an idle-stream skip: a round-robin filler and a horizon advance."""
        self._check_stream(stream_id)
        self._queues[stream_id].append((sequence, timestamp, SkipToken(stream_id, sequence)))
        if timestamp > self._horizon[stream_id]:
            self._horizon[stream_id] = timestamp

    def _check_stream(self, stream_id):
        if stream_id not in self._queues:
            raise ProtocolError(f"not subscribed to stream {stream_id}")

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def pending(self):
        """Total number of buffered (not yet deliverable) items."""
        return sum(len(q) for q in self._queues.values())

    def pop_deliverable(self):
        """Return the list of batches now deliverable, in deterministic order."""
        if self.policy == "timestamp":
            items = self._pop_timestamp()
        else:
            items = self._pop_round_robin()
        delivered = [item for item in items if not isinstance(item, SkipToken)]
        self.delivered += len(delivered)
        return delivered

    def _pop_timestamp(self):
        out = []
        if len(self.stream_ids) == 1:
            queue = self._queues[self.stream_ids[0]]
            while queue:
                out.append(queue.popleft()[2])
            return out
        while True:
            best = None
            for sid in self.stream_ids:
                queue = self._queues[sid]
                if not queue:
                    continue
                _seq, timestamp, _item = queue[0]
                key = (timestamp, sid)
                if best is None or key < best[0]:
                    best = (key, sid)
            if best is None:
                return out
            (timestamp, sid) = best[0][0], best[1]
            # Deliverable only if no other stream can still produce something
            # ordered before (timestamp, sid).
            for other in self.stream_ids:
                if other == sid:
                    continue
                queue = self._queues[other]
                if queue:
                    continue  # its head is already known to be later
                if (self._horizon[other], other) <= (timestamp, sid):
                    return out  # must wait for more information from `other`
            out.append(self._queues[sid].popleft()[2])

    def _pop_round_robin(self):
        out = []
        while True:
            heads = {}
            for sid in self.stream_ids:
                queue = self._queues[sid]
                if not queue or queue[0][0] != self._round:
                    heads = None
                    break
                heads[sid] = queue
            if heads is None:
                return out
            for sid in self.stream_ids:
                out.append(heads[sid].popleft()[2])
            self._round += 1
