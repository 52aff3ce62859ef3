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

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, imported on first access: the
#: live runtimes use the group layout and sharding, never the simulator's
#: merge buffer or order checker.
_EXPORTS = {
    "Group": "repro.multicast.group",
    "GroupLayout": "repro.multicast.group",
    "ALL_GROUPS": "repro.multicast.group",
    "MergeBuffer": "repro.multicast.merge",
    "SkipToken": "repro.multicast.merge",
    "OrderChecker": "repro.multicast.order_checker",
    "HASH_SPACE": "repro.multicast.sharding",
    "ShardLoadTracker": "repro.multicast.sharding",
    "ShardMap": "repro.multicast.sharding",
    "ShardRouter": "repro.multicast.sharding",
    "group_loads": "repro.multicast.sharding",
    "propose_rebalance": "repro.multicast.sharding",
    "stable_key_hash": "repro.multicast.sharding",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
