"""Deterministic identifier generation.

Identifiers in the simulator must be reproducible across runs with the
same seed, so we never use ``uuid`` or wall-clock time; every id is
derived from monotonically increasing counters scoped by a prefix.
"""

import itertools


class IdGenerator:
    """Produces monotonically increasing integer ids, optionally per scope.

    >>> gen = IdGenerator()
    >>> gen.next("client")
    0
    >>> gen.next("client")
    1
    >>> gen.next("server")
    0
    """

    def __init__(self):
        self._counters = {}

    def next(self, scope="default"):
        """Return the next id for ``scope`` (each scope counts independently)."""
        counter = self._counters.get(scope)
        if counter is None:
            counter = itertools.count()
            self._counters[scope] = counter
        return next(counter)


def make_command_uid(client_id, sequence):
    """Build a globally unique command identifier from its origin.

    The pair (client id, per-client sequence number) uniquely identifies a
    command in the whole system, mirroring how the paper's client proxies
    tag requests.
    """
    return (int(client_id), int(sequence))
