"""Atomic multicast built from parallel Paxos streams (paper sections II, VI-A).

The abstraction offered to the replication protocols is the paper's:
``multicast(gamma, m)`` where ``gamma`` is a set of groups, and
``deliver(m)`` at every correct server thread subscribed to a group in
``gamma``, with the acyclic-order guarantee.

Internally (matching the paper's prototype):

* each group ``g_i`` is one Paxos-ordered stream with its own coordinator
  and :class:`~repro.multicast.batcher.Batcher`; the simulator models the
  Paxos round by its costs (:class:`repro.replication.base.SimStream`), the
  live runtimes order through a sequencer (:mod:`repro.runtime.multicast`);
* each worker thread ``t_i`` subscribes to its own group ``g_i`` and to the
  ``g_all`` group that every thread belongs to;
* a message addressed to a single group travels on that group's stream; a
  message addressed to several groups travels on the ``g_all`` stream;
* subscribers of multiple streams use a deterministic merge so every replica
  delivers the same interleaving.
"""

from repro.multicast.group import Group, GroupLayout, ALL_GROUPS
from repro.multicast.merge import MergeBuffer, SkipToken
from repro.multicast.order_checker import OrderChecker
from repro.multicast.sharding import (
    HASH_SPACE,
    ShardLoadTracker,
    ShardMap,
    ShardRouter,
    group_loads,
    propose_rebalance,
    stable_key_hash,
)

__all__ = [
    "Group",
    "GroupLayout",
    "ALL_GROUPS",
    "MergeBuffer",
    "SkipToken",
    "OrderChecker",
    "HASH_SPACE",
    "ShardLoadTracker",
    "ShardMap",
    "ShardRouter",
    "group_loads",
    "propose_rebalance",
    "stable_key_hash",
]
