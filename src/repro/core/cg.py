"""C-G: the Command-to-Groups function (paper section IV-C).

The C-G function maps a command identifier and its input parameters to the
set of multicast groups the request must be multicast to.  It is computed
from the service's C-Dep (here: from the routing declarations that generate
the C-Dep) and from the multiprogramming level, so that

* independent commands are spread over different groups (maximising
  concurrency), and
* any two dependent commands share at least one destination group (so the
  order property of atomic multicast, plus the barrier at the server proxy,
  serialises them).

It also packs calls into batches (:meth:`CGFunction.batches`): calls that
map to the same single group travel as one command of that group, which
is what makes a client's batch of independent keyed commands cost a few
ordered messages instead of one each.
"""

from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRNG
from repro.core.command import BATCH
from repro.core.descriptor import Keyed, Serial, ServiceSpec
from repro.multicast.group import ALL_GROUPS
from repro.multicast.sharding import stable_key_hash


class CGFunction:
    """The compiled Command-to-Groups mapping for one service and one MPL.

    With a :class:`~repro.multicast.sharding.ShardRouter` attached, keyed
    commands route through the dynamic key-range :class:`ShardMap` instead
    of the static modulo rule, and :meth:`route` reports the shard-map
    version used so the multicast sequencer can reject stale routings.
    """

    def __init__(self, spec: ServiceSpec, mpl, seed=0, coarse=False, router=None):
        if mpl < 1:
            raise ConfigurationError("multiprogramming level must be >= 1")
        self.spec = spec
        self.mpl = mpl
        self.coarse = coarse
        self.router = router
        self._rng = SeededRNG(seed).child("cg", spec.name)
        self._round_robin = 0
        # Pre-built singleton destination sets, indexed by group id (1..mpl);
        # building a frozenset per invocation would dominate the client proxy.
        self._singletons = [None] + [frozenset({gid}) for gid in range(1, mpl + 1)]
        #: Command name -> its routing as a function of ``args``, compiled
        #: once: a batch routes every call twice (to bucket it, then to
        #: route the bucket), so per-call lookups add up.
        self._routes = {
            descriptor.name: self._compile(descriptor) for descriptor in spec
        }

    # ------------------------------------------------------------------
    # The mapping itself
    # ------------------------------------------------------------------
    def route(self, name, args):
        """Destinations plus the shard-map version the routing was based on.

        Returns ``(groups, shard_version)``.  ``shard_version`` is ``None``
        for every routing that does not consult the dynamic shard map —
        Serial/coarse commands go to all groups regardless of the
        partition, and Free commands carry no key — so only keyed
        singleton routings are subject to the sequencer's staleness check.
        A :data:`~repro.core.command.BATCH` command goes to the union of
        its calls' destinations (see :meth:`_route_batch`).
        """
        if name == BATCH:
            return self._route_batch(args["calls"])
        return self._route_call(name, args)

    def _compile(self, descriptor):
        """``descriptor``'s routing: ``args -> (groups, shard_version)``."""
        routing = descriptor.routing
        if isinstance(routing, Serial) or (
            # The paper's "simple C-Dep" example: any state-modifying
            # command goes to every group, reads go to a random group.
            isinstance(routing, Keyed) and self.coarse and descriptor.writes
        ):
            everywhere = (ALL_GROUPS, None)
            return lambda args: everywhere
        singletons = self._singletons
        if isinstance(routing, Keyed):
            extract, key_hash = routing.extractor, self._stable_hash
            if self.router is not None:
                route_hash = self.router.route_hash

                def keyed(args):
                    group, version = route_hash(key_hash(extract(args)))
                    return singletons[group], version

                return keyed
            mpl = self.mpl
            return lambda args: (singletons[key_hash(extract(args)) % mpl + 1], None)
        # Free commands: balance over groups without constraining order.
        return lambda args: (singletons[self._next_free_group()], None)

    def _route_call(self, name, args):
        return (self._routes.get(name) or self._unknown(name))(args)

    def _unknown(self, name):
        self.spec.descriptor(name)  # raises: the service has no such command

    def _route_batch(self, calls):
        """The union of the calls' destinations, routed now.

        The version is the oldest any call was routed with: a shard-map
        switch in the middle of this loop leaves it stale, and the
        sequencer then rejects the batch and it is routed again, as a
        whole.
        """
        groups = set()
        version = None
        routes = self._routes
        for name, args in calls:
            route = routes.get(name) or self._unknown(name)
            destinations, routed = route(args)
            if destinations == ALL_GROUPS:
                return ALL_GROUPS, None
            groups.update(destinations)
            if routed is not None and (version is None or routed < version):
                version = routed
        if len(groups) == 1:
            return self._singletons[groups.pop()], version
        return frozenset(groups), version

    def batches(self, calls):
        """Split ``(name, args)`` calls into batches, as lists of indices.

        A call routed to one single group joins that group's bucket, in
        call order; calls in different buckets are independent (dependent
        calls share a group), so the buckets may be ordered in any order
        relative to each other.  Any other call — to every group, or to
        several — is a batch of its own and closes the buckets before it:
        they are ordered first, and no call after it joins them, so no
        call passes one it depends on.
        """
        batches = []
        buckets = {}
        routes = self._routes
        for index, (name, args) in enumerate(calls):
            destinations = (routes.get(name) or self._unknown(name))(args)[0]
            if destinations != ALL_GROUPS and len(destinations) == 1:
                bucket = buckets.get(destinations)
                if bucket is None:
                    buckets[destinations] = [index]
                else:
                    bucket.append(index)
                continue
            batches.extend(buckets.values())
            buckets = {}
            batches.append([index])
        batches.extend(buckets.values())
        return batches

    def groups_for(self, name, args):
        """Return the destination groups of an invocation.

        The result is either :data:`~repro.multicast.group.ALL_GROUPS` or a
        frozenset with a single group id in ``1..mpl``.
        """
        return self.route(name, args)[0]

    def group_of_key(self, key):
        """The paper's keyed mapping: ``(key mod k) + 1`` — or the shard map."""
        if self.router is not None:
            return self.router.shard_map.group_for_hash(self._stable_hash(key))
        return (self._stable_hash(key) % self.mpl) + 1

    def _next_free_group(self):
        if self.coarse:
            return self._rng.randint(1, self.mpl)
        self._round_robin = (self._round_robin % self.mpl) + 1
        return self._round_robin

    #: Single implementation shared with the shard map, so static and
    #: dynamic routing agree on where any key lives in hash space.
    _stable_hash = staticmethod(stable_key_hash)

    # ------------------------------------------------------------------
    # Validation against a C-Dep
    # ------------------------------------------------------------------
    def validate_against(self, cdep, sample_invocations):
        """Check that every dependent pair of sample invocations shares a group.

        ``sample_invocations`` is an iterable of ``(name, args)`` pairs.  This
        is the structural property the C-G optimisation problem must satisfy
        (section IV-C): dependent commands must have intersecting destination
        sets.  Raises :class:`ConfigurationError` on violation.
        """
        samples = list(sample_invocations)
        resolved = [
            (name, args, self._as_set(self.groups_for(name, args)))
            for name, args in samples
        ]
        for i, (name_a, args_a, groups_a) in enumerate(resolved):
            for name_b, args_b, groups_b in resolved[i:]:
                if not cdep.dependent(name_a, args_a, name_b, args_b):
                    continue
                if groups_a & groups_b:
                    continue
                raise ConfigurationError(
                    "C-G violates C-Dep: dependent invocations "
                    f"{name_a}{args_a} and {name_b}{args_b} share no group"
                )
        return True

    def _as_set(self, groups):
        if groups == ALL_GROUPS:
            return frozenset(range(1, self.mpl + 1))
        return frozenset(groups)
