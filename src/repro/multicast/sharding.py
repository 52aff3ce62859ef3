"""Dynamic key-range sharding of the command space across multicast groups.

The paper's C-G function statically partitions the keyspace over groups
g_1..g_n with ``(hash(k) mod n) + 1``.  Skewed workloads concentrate load
on one group and cap the parallel speedup, so this module makes the
partition *dynamic*:

* a :class:`ShardMap` is a versioned, contiguous key-range partition of the
  31-bit stable-hash space across groups — commands route through it
  instead of the modulo rule;
* a :class:`ShardLoadTracker` counts per-key-hash routing decisions so the
  rebalancer can see where the load actually lands;
* :func:`propose_rebalance` turns a load snapshot into a new, better
  balanced :class:`ShardMap` (version + 1) by sweeping the observed hashes
  in order and cutting equal-load ranges.

No state moves with a range: every P-SMR replica holds the whole service
state, and the map only decides which worker orders and executes a
command.  A shard move is therefore a routing switch at one barrier — the
update is ordered to every worker like a dependent command, so a moved
key's old group finishes everything ordered before the switch before its
new group starts on anything ordered after it.

Routing consistency across a map change is enforced at the sequencer: the
multicast layer records the shard-map version each command was routed
with, and rejects commands routed with a stale version *before* they
consume a sequence number (``StaleShardRouteError``), so in-flight
commands either order before the map update with the old routing or are
re-routed by the client with the new one.  Group membership of a key is
therefore always a pure function of the last shard-map update delivered
before the command.
"""

import bisect
import threading

from repro.common.errors import ConfigurationError, StaleShardRouteError

__all__ = [
    "HASH_SPACE",
    "ShardLoadTracker",
    "ShardMap",
    "ShardRouter",
    "StaleShardRouteError",
    "group_loads",
    "propose_rebalance",
    "stable_key_hash",
]

#: The stable-hash space: ``stable_key_hash`` masks to 31 bits, so every
#: routable key hash lives in ``[0, HASH_SPACE)``.
HASH_SPACE = 1 << 31
_HASH_MASK = HASH_SPACE - 1


def stable_key_hash(key):
    """A process-independent key hash (``hash()`` is salted for strings).

    Small non-negative integers map to themselves, which keeps an integer
    keyspace ``[0, key_space)`` literally contiguous in hash space — the
    property the key-range partition and the skew benchmark rely on.
    This is the single implementation; ``CGFunction`` delegates here.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, (tuple, list)):
        mixed = 0
        for part in key:
            mixed = mixed * 1000003 + stable_key_hash(part)
        return mixed & _HASH_MASK
    mixed = 0
    for ch in str(key):
        mixed = (mixed * 131 + ord(ch)) & _HASH_MASK
    return mixed


class ShardMap:
    """A versioned contiguous key-range partition of hash space over groups.

    ``bounds`` is a strictly increasing tuple of range-start hashes with
    ``bounds[0] == 0``; range ``i`` covers ``[bounds[i], bounds[i+1])``
    (the last range extends to :data:`HASH_SPACE`) and is owned by group
    ``groups[i]``.  Maps are immutable: every mutation returns a new map
    with ``version + 1``.
    """

    __slots__ = ("version", "bounds", "groups")

    def __init__(self, version, bounds, groups, mpl=None):
        bounds = tuple(bounds)
        groups = tuple(groups)
        if not bounds:
            raise ConfigurationError("shard map needs at least one range")
        if bounds[0] != 0:
            raise ConfigurationError("shard map must start at hash 0")
        if len(bounds) != len(groups):
            raise ConfigurationError(
                "shard map bounds and groups must have equal length"
            )
        for left, right in zip(bounds, bounds[1:]):
            if right <= left:
                raise ConfigurationError("shard map bounds must strictly increase")
        if bounds[-1] >= HASH_SPACE:
            raise ConfigurationError("shard map bounds must stay below HASH_SPACE")
        for group in groups:
            if not isinstance(group, int) or isinstance(group, bool) or group < 1:
                raise ConfigurationError("shard map groups must be ints >= 1")
            if mpl is not None and group > mpl:
                raise ConfigurationError(
                    f"shard map group {group} exceeds multiprogramming level {mpl}"
                )
        if not isinstance(version, int) or version < 0:
            raise ConfigurationError("shard map version must be an int >= 0")
        self.version = version
        self.bounds = bounds
        self.groups = groups

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, mpl, key_space=None):
        """The static-partition starting point: ``mpl`` equal key ranges.

        With ``key_space`` the ranges split ``[0, key_space)`` equally (the
        last range extends to the end of hash space), mirroring how an
        integer-keyed workload populates hashes; without it, hash space
        itself is split equally.
        """
        if mpl < 1:
            raise ConfigurationError("multiprogramming level must be >= 1")
        span = key_space if key_space else HASH_SPACE
        if span < 1:
            raise ConfigurationError("key_space must be >= 1")
        width = max(1, span // mpl)
        bounds, groups = [], []
        for gid in range(1, mpl + 1):
            start = (gid - 1) * width
            if start >= span and bounds:
                break
            bounds.append(start)
            groups.append(gid)
        return cls(0, bounds, groups, mpl=mpl)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def group_for_hash(self, key_hash):
        """The owning group of a stable key hash."""
        index = bisect.bisect_right(self.bounds, key_hash & _HASH_MASK) - 1
        return self.groups[index]

    def group_for_key(self, key):
        return self.group_for_hash(stable_key_hash(key))

    def ranges(self):
        """The partition as ``(lo, hi, group)`` triples covering hash space."""
        ends = list(self.bounds[1:]) + [HASH_SPACE]
        return [
            (lo, hi, group)
            for lo, hi, group in zip(self.bounds, ends, self.groups)
        ]

    # ------------------------------------------------------------------
    # Mutation (returns new maps)
    # ------------------------------------------------------------------
    def split(self, at_hash):
        """Split the range containing ``at_hash`` at that hash (same owner)."""
        at_hash &= _HASH_MASK
        if at_hash in self.bounds:
            raise ConfigurationError(f"hash {at_hash} is already a range boundary")
        index = bisect.bisect_right(self.bounds, at_hash) - 1
        bounds = self.bounds[: index + 1] + (at_hash,) + self.bounds[index + 1 :]
        groups = self.groups[: index + 1] + (self.groups[index],) + self.groups[index + 1 :]
        return ShardMap(self.version + 1, bounds, groups)

    def move(self, start_hash, target_group):
        """Reassign the range starting exactly at ``start_hash``."""
        if start_hash not in self.bounds:
            raise ConfigurationError(
                f"hash {start_hash} is not a range start; split first"
            )
        index = self.bounds.index(start_hash)
        groups = list(self.groups)
        groups[index] = target_group
        return ShardMap(self.version + 1, self.bounds, groups)

    def moved_ranges(self, old_map):
        """Ownership changes from ``old_map`` to this map.

        Returns coalesced ``(lo, hi, from_group, to_group)`` tuples for
        every hash interval whose owning group differs.
        """
        cuts = sorted(set(self.bounds) | set(old_map.bounds)) + [HASH_SPACE]
        moved = []
        for lo, hi in zip(cuts, cuts[1:]):
            source = old_map.group_for_hash(lo)
            target = self.group_for_hash(lo)
            if source == target:
                continue
            if moved and moved[-1][1] == lo and moved[-1][2:] == (source, target):
                moved[-1] = (moved[-1][0], hi, source, target)
            else:
                moved.append((lo, hi, source, target))
        return moved

    def __eq__(self, other):
        return (
            isinstance(other, ShardMap)
            and self.version == other.version
            and self.bounds == other.bounds
            and self.groups == other.groups
        )

    def __repr__(self):
        return (
            f"ShardMap(version={self.version}, ranges={len(self.bounds)}, "
            f"groups={sorted(set(self.groups))})"
        )


class ShardLoadTracker:
    """Thread-safe per-key-hash routing counters feeding the rebalancer.

    Tracks at most ``max_tracked`` distinct hashes (hot keys are by
    definition seen early and often); overflow routings are counted but
    not attributed, and reported so a proposal knows its blind spot.
    """

    def __init__(self, max_tracked=65536):
        if max_tracked < 1:
            raise ConfigurationError("max_tracked must be >= 1")
        self._lock = threading.Lock()
        self._counts = {}
        self._untracked = 0
        self.max_tracked = max_tracked

    def record(self, key_hash):
        key_hash &= _HASH_MASK
        with self._lock:
            count = self._counts.get(key_hash)
            if count is not None:
                self._counts[key_hash] = count + 1
            elif len(self._counts) < self.max_tracked:
                self._counts[key_hash] = 1
            else:
                self._untracked += 1

    def snapshot(self):
        with self._lock:
            return dict(self._counts)

    @property
    def untracked(self):
        with self._lock:
            return self._untracked

    def reset(self):
        with self._lock:
            self._counts.clear()
            self._untracked = 0


def group_loads(shard_map, counts):
    """Aggregate a hash->count snapshot into per-group load totals."""
    loads = {}
    for key_hash, count in counts.items():
        group = shard_map.group_for_hash(key_hash)
        loads[group] = loads.get(group, 0) + count
    return loads


def propose_rebalance(shard_map, counts, mpl, min_imbalance=1.25):
    """Propose a better-balanced successor map, or ``None`` if not worth it.

    ``counts`` is a :meth:`ShardLoadTracker.snapshot`.  The proposal sweeps
    the observed hashes in order and cuts contiguous ranges of roughly
    ``total / mpl`` load each — a single hash hotter than the target gets a
    range of its own, which is the best a range partition can do.  Returns
    ``None`` when there is no load, when the current imbalance (hottest
    group's load over the ideal equal share) is below ``min_imbalance``,
    or when the sweep reproduces the current bounds.
    """
    if mpl < 1:
        raise ConfigurationError("multiprogramming level must be >= 1")
    total = sum(counts.values())
    if total <= 0 or mpl == 1:
        return None
    loads = group_loads(shard_map, counts)
    ideal = total / mpl
    if max(loads.values()) / ideal < min_imbalance:
        return None
    target = total / mpl
    bounds = [0]
    accumulated = 0
    for key_hash, count in sorted(counts.items()):
        if accumulated >= target and len(bounds) < mpl and key_hash > bounds[-1]:
            bounds.append(key_hash)
            accumulated = 0
        accumulated += count
    groups = list(range(1, len(bounds) + 1))
    if tuple(bounds) == shard_map.bounds and tuple(groups) == shard_map.groups:
        return None
    return ShardMap(shard_map.version + 1, bounds, groups, mpl=mpl)


class ShardRouter:
    """The dynamic C-G hook: current map + load tracking + atomic installs.

    ``route_hash`` is called by the C-G function on every keyed command;
    ``install`` is called by the multicast layer *under its sequencing
    lock* when a shard-map update is ordered, so a routing version and the
    map that produced it always correspond.
    """

    def __init__(self, shard_map, mpl, max_tracked=65536):
        if not isinstance(shard_map, ShardMap):
            raise ConfigurationError("router needs a ShardMap")
        # Revalidate group ids against this deployment's mpl.
        ShardMap(shard_map.version, shard_map.bounds, shard_map.groups, mpl=mpl)
        self._lock = threading.Lock()
        self._map = shard_map
        self.mpl = mpl
        self.tracker = ShardLoadTracker(max_tracked=max_tracked)

    @property
    def shard_map(self):
        with self._lock:
            return self._map

    @property
    def version(self):
        with self._lock:
            return self._map.version

    def route_hash(self, key_hash):
        """Route a stable key hash: ``(group_id, shard_map_version)``."""
        self.tracker.record(key_hash)
        with self._lock:
            return self._map.group_for_hash(key_hash), self._map.version

    def install(self, new_map):
        """Install a successor map; versions must advance monotonically."""
        with self._lock:
            if new_map.version <= self._map.version:
                raise ConfigurationError(
                    f"shard map version must advance: {new_map.version} "
                    f"<= {self._map.version}"
                )
            previous, self._map = self._map, new_map
        return previous

    def propose_rebalance(self, min_imbalance=1.25):
        """A rebalance proposal from the tracker's current snapshot."""
        with self._lock:
            current = self._map
        return propose_rebalance(
            current, self.tracker.snapshot(), self.mpl, min_imbalance=min_imbalance
        )

