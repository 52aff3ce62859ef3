"""Network fault plane shared by the threaded and process runtimes.

The paper's atomic multicast is *reliable* and FIFO-atomic: messages may
be arbitrarily delayed by the network, but every correct destination
eventually delivers every message, exactly once, in sequence order.  The
fault plane therefore never decides *whether* a message arrives — only
*when*.  A dropped transmission is modelled as a retransmission after a
backoff; a partition is an infinite-delay link that starts flowing again
on :meth:`FaultPlane.heal`.  The pump that applies the plan
(:mod:`repro.runtime.transport.pump`) keeps each link FIFO, as the TCP
connection or in-process hand-off under it does, so faults surface as
latency, never as loss, duplication or reordering — the invariant the
nemesis suite pins against the linearizability oracle.

Two pieces live here because both runtimes share them:

* :class:`FaultPlane` — per-link fault probabilities (drop, delay),
  partitions, isolation and heal, all driven by one explicit
  ``random.Random(seed)``.  Every random decision and every topology
  change is appended to a schedule log so a run's fault schedule can be
  compared byte-for-byte across replays.
* :class:`Nemesis` — a seeded plan generator interleaving partitions,
  crashes, recoveries, disk restarts and checkpoint markers
  under safety constraints (never crash the last live replica, heal
  before marker-dependent operations).
"""

import random
import threading
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

__all__ = [
    "FaultPlane",
    "LinkFaults",
    "Nemesis",
    "NemesisOp",
]


@dataclass(frozen=True)
class LinkFaults:
    """Fault probabilities for one (src, dst) link.

    ``drop`` is the probability that a transmission attempt is lost and
    must be retransmitted after the plane's backoff (reliability is never
    sacrificed — a "dropped" message is simply late).  ``delay`` is the
    probability of adding extra latency drawn uniformly from
    ``delay_range``.
    """

    drop: float = 0.0
    delay: float = 0.0
    delay_range: tuple = (0.0, 0.0)

    def validate(self):
        for name in ("drop", "delay"):
            probability = getattr(self, name)
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(f"{name} probability must be in [0, 1]")
        low, high = self.delay_range
        if low < 0 or high < low:
            raise ConfigurationError("delay_range must be 0 <= low <= high")
        return self


_NO_FAULTS = LinkFaults()


class FaultPlane:
    """Seeded per-link fault decisions plus a mutable partition topology.

    Nodes are opaque hashable names (the runtimes use ``"order"`` for the
    sequencer side and ``"replica<N>"`` for each replica).  Link fault
    configuration resolves most-specific-first: ``(src, dst)`` exact, then
    ``(None, dst)``, ``(src, None)``, and finally the ``(None, None)``
    default.

    :meth:`plan_delivery` consumes randomness and returns, for one message
    on one link, its extra latency: the message always arrives
    (reliability), drops and delays only make it late.  :meth:`is_blocked`
    answers whether a link is currently severed by a partition; the pump
    polls it every ``retransmit_backoff`` until :meth:`heal`.

    All mutating calls and random draws are serialised by an internal
    lock (the threaded runtime consults the plane from several threads)
    and recorded in a schedule log; :meth:`schedule_bytes` serialises the
    log so replays can be compared byte-for-byte.
    """

    def __init__(
        self,
        seed=0,
        retransmit_backoff=0.01,
        max_retransmits=16,
    ):
        if retransmit_backoff <= 0:
            raise ConfigurationError("retransmit_backoff must be > 0")
        if max_retransmits < 1:
            raise ConfigurationError("max_retransmits must be >= 1")
        self.seed = seed
        self.retransmit_backoff = retransmit_backoff
        self.max_retransmits = max_retransmits
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._links = {}  # (src|None, dst|None) -> LinkFaults
        self._partitions = []  # list of (frozenset, frozenset)
        self._isolated = set()  # fully isolated nodes
        self._schedule = []
        self.stats = {
            "messages": 0,
            "retransmits": 0,
            "delayed": 0,
            "blocked_retries": 0,
        }

    # ------------------------------------------------------------------
    # Link fault configuration
    # ------------------------------------------------------------------
    def set_link(self, src=None, dst=None, **faults):
        """Set fault probabilities for a link; ``None`` endpoints are wildcards."""
        link_faults = LinkFaults(**faults).validate()
        with self._lock:
            self._links[(src, dst)] = link_faults
            self._schedule.append(("set_link", src, dst, link_faults))
        return link_faults

    def _faults_for_locked(self, src, dst):
        for key in ((src, dst), (None, dst), (src, None), (None, None)):
            found = self._links.get(key)
            if found is not None:
                return found
        return _NO_FAULTS

    # ------------------------------------------------------------------
    # Partition topology
    # ------------------------------------------------------------------
    def partition(self, side_a, side_b):
        """Sever every link between the two node sets, in both directions."""
        side_a, side_b = frozenset(side_a), frozenset(side_b)
        if side_a & side_b:
            raise ConfigurationError("partition sides must be disjoint")
        with self._lock:
            self._partitions.append((side_a, side_b))
            self._schedule.append(("partition", tuple(sorted(side_a)), tuple(sorted(side_b))))

    def isolate(self, node):
        """Sever every link to and from ``node`` until healed."""
        with self._lock:
            self._isolated.add(node)
            self._schedule.append(("isolate", node))

    def heal(self):
        """Restore full connectivity (link fault probabilities persist)."""
        with self._lock:
            self._partitions.clear()
            self._isolated.clear()
            self._schedule.append(("heal",))

    def is_blocked(self, src, dst):
        """True while the src->dst link is severed by the current topology."""
        with self._lock:
            if src in self._isolated or dst in self._isolated:
                return True
            for side_a, side_b in self._partitions:
                if (src in side_a and dst in side_b) or (src in side_b and dst in side_a):
                    return True
            return False

    def note_blocked_retry(self):
        """Count one blocked-link retry (called by the runtime's pump)."""
        with self._lock:
            self.stats["blocked_retries"] += 1

    # ------------------------------------------------------------------
    # Per-message fault decisions
    # ------------------------------------------------------------------
    def plan_delivery(self, src, dst):
        """Plan one message on src->dst; return its delay in seconds.

        A finite delay, ``0.0`` on a link without faults: the backoff of
        each dropped transmission (at most ``max_retransmits - 1`` of
        them) plus any extra latency.  The pump releases a link's
        messages in posting order, so a late message holds back the ones
        behind it.
        """
        with self._lock:
            faults = self._faults_for_locked(src, dst)
            self.stats["messages"] += 1
            rng = self._rng
            delay = 0.0
            attempts = 1
            # A probability of 0 draws nothing: a fault-free link consumes
            # no randomness.
            while (
                faults.drop
                and attempts < self.max_retransmits
                and rng.random() < faults.drop
            ):
                delay += self.retransmit_backoff
                attempts += 1
                self.stats["retransmits"] += 1
            if faults.delay and rng.random() < faults.delay:
                delay += rng.uniform(*faults.delay_range)
                self.stats["delayed"] += 1
            self._schedule.append(("plan", src, dst, delay))
            return delay

    # ------------------------------------------------------------------
    # Schedule replay
    # ------------------------------------------------------------------
    def schedule(self):
        with self._lock:
            return list(self._schedule)

    def schedule_bytes(self):
        """Serialised fault schedule, byte-for-byte comparable across replays."""
        with self._lock:
            return "\n".join(repr(entry) for entry in self._schedule).encode("utf-8")


# ----------------------------------------------------------------------
# Nemesis plan generation
# ----------------------------------------------------------------------

#: Every operation kind a nemesis plan may contain.  ``restart_disk`` needs
#: a cluster with a durable store; callers restrict ``kinds`` accordingly.
NEMESIS_OP_KINDS = (
    "partition",
    "heal",
    "crash",
    "recover",
    "restart_disk",
    "checkpoint",
)


@dataclass(frozen=True)
class NemesisOp:
    """One scheduled nemesis operation: ``kind`` at offset ``at`` seconds."""

    step: int
    at: float
    kind: str
    target: int = None

    def describe(self):
        suffix = "" if self.target is None else f" replica{self.target}"
        return f"[{self.step}] t+{self.at:.3f}s {self.kind}{suffix}"


class Nemesis:
    """Seeded randomized nemesis plan over ``num_replicas`` replicas.

    The full plan is generated up front from ``random.Random(seed)`` —
    the same seed always yields the identical operation schedule, which
    is what makes a failing episode reproducible with one command.

    Safety constraints keep every plan survivable:

    * at most ``num_replicas - 1`` replicas are crashed at once;
    * at most one replica is partitioned at a time (clients keep making
      progress through the majority);
    * ``recover``/``restart_disk``/``checkpoint`` only run with no
      partition active (checkpoint markers and state transfer need every
      live replica reachable within the test's timeout);
    * any partition still open at the end is healed by a final op.
    """

    def __init__(
        self,
        seed,
        num_replicas,
        steps=10,
        mean_gap=0.05,
        kinds=NEMESIS_OP_KINDS,
    ):
        if num_replicas < 2:
            raise ConfigurationError("nemesis needs >= 2 replicas")
        if steps < 1:
            raise ConfigurationError("steps must be >= 1")
        unknown = set(kinds) - set(NEMESIS_OP_KINDS)
        if unknown:
            raise ConfigurationError(f"unknown nemesis op kinds: {sorted(unknown)}")
        self.seed = seed
        self.num_replicas = num_replicas
        self.kinds = tuple(kinds)
        self.plan = self._generate(random.Random(seed), steps, mean_gap)

    def _generate(self, rng, steps, mean_gap):
        plan = []
        crashed = set()
        partitioned = set()
        at = 0.0
        for step in range(steps):
            at += rng.uniform(0.5, 1.5) * mean_gap
            candidates = []
            healthy = [
                replica
                for replica in range(self.num_replicas)
                if replica not in crashed and replica not in partitioned
            ]
            if "partition" in self.kinds and not partitioned and len(healthy) >= 2:
                candidates.append("partition")
            if "heal" in self.kinds and partitioned:
                candidates.extend(["heal"] * 2)
            if "crash" in self.kinds and len(crashed) < self.num_replicas - 1:
                candidates.append("crash")
            if not partitioned:
                if "recover" in self.kinds and crashed:
                    candidates.extend(["recover"] * 2)
                if "restart_disk" in self.kinds and crashed:
                    candidates.extend(["restart_disk"] * 2)
                if "checkpoint" in self.kinds:
                    candidates.append("checkpoint")
            if not candidates:
                continue
            kind = rng.choice(candidates)
            target = None
            if kind == "partition":
                target = rng.choice(healthy)
                partitioned.add(target)
            elif kind == "heal":
                partitioned.clear()
            elif kind == "crash":
                target = rng.choice(
                    [r for r in range(self.num_replicas) if r not in crashed]
                )
                crashed.add(target)
            elif kind in ("recover", "restart_disk"):
                target = rng.choice(sorted(crashed))
                crashed.discard(target)
            plan.append(NemesisOp(step=step, at=at, kind=kind, target=target))
        if partitioned:
            at += rng.uniform(0.5, 1.5) * mean_gap
            plan.append(NemesisOp(step=len(plan), at=at, kind="heal", target=None))
        return tuple(plan)
