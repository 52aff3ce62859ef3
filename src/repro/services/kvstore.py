"""The key-value store service (paper sections V-A and VI-B).

Commands (paper signatures)::

    insert(in: int k, char[] v, out: int err)
    delete(in: int k, out: int err)
    read  (in: int k, out: char[] v, int err)
    update(in: int k, char[] v, out: int err)

The store is a B+-tree.  Reads leave the tree untouched; updates change a
single entry; inserts and deletes may restructure the tree, hence the
paper's C-Dep: *inserts and deletes depend on all commands; an update on key
k depends on other updates on k, on reads on k, and on inserts and deletes.*
"""

from itertools import repeat

from repro.btree import BPlusTree
from repro.common.errors import KeyAlreadyExistsError, KeyNotFoundError, ServiceError
from repro.core.cdep import CDep
from repro.core.command import Response
from repro.core.descriptor import CommandDescriptor, Keyed, Serial, ServiceSpec


def _key_of(args):
    return args["key"]


def build_kvstore_spec():
    """Build the key-value store's :class:`ServiceSpec`."""
    return ServiceSpec(
        "kvstore",
        [
            CommandDescriptor(
                name="insert",
                params=(("key", "int"), ("value", "bytes")),
                writes=True,
                routing=Serial(),
                doc="Include key k and value v in the database.",
            ),
            CommandDescriptor(
                name="delete",
                params=(("key", "int"),),
                writes=True,
                routing=Serial(),
                doc="Remove k from the database.",
            ),
            CommandDescriptor(
                name="read",
                params=(("key", "int"),),
                writes=False,
                routing=Keyed(extractor=_key_of, domain="key"),
                doc="Return the value of k.",
            ),
            CommandDescriptor(
                name="update",
                params=(("key", "int"), ("value", "bytes")),
                writes=True,
                routing=Keyed(extractor=_key_of, domain="key"),
                doc="Replace the current value of k with v.",
            ),
        ],
    ).validate()


#: Module-level singleton spec (descriptors are immutable).
KVSTORE_SPEC = build_kvstore_spec()

#: The key-value store's C-Dep, derived from the routing declarations.
KVSTORE_CDEP = CDep.from_service(KVSTORE_SPEC)


class KeyValueStoreServer:
    """The deterministic state machine executed by every replica."""

    #: Error codes mirrored from the paper's signatures (out: int err).
    OK = 0
    ERR_NOT_FOUND = 1
    ERR_EXISTS = 2

    def __init__(self, initial_keys=0, value=b"\x00" * 8, order=64):
        # Keys 0..initial_keys-1, built in one pass; the seeded state is
        # the implicit base, so delta tracking starts clean.
        self._tree = BPlusTree(
            order, range(initial_keys), repeat(value, initial_keys)
        )
        self.commands_executed = 0

    def __len__(self):
        return len(self._tree)

    @property
    def tree(self):
        return self._tree

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def execute(self, name, args):
        """Execute one command; return ``(err, value)`` like the paper's signatures."""
        self.commands_executed += 1
        key = args["key"]
        if name == "read":
            try:
                return self.OK, self._tree.search(key)
            except KeyNotFoundError:
                return self.ERR_NOT_FOUND, None
        if name == "update":
            try:
                self._tree.update(key, args["value"])
                return self.OK, None
            except KeyNotFoundError:
                return self.ERR_NOT_FOUND, None
        if name == "insert":
            try:
                self._tree.insert(key, args["value"])
                return self.OK, None
            except KeyAlreadyExistsError:
                return self.ERR_EXISTS, None
        if name == "delete":
            try:
                self._tree.delete(key)
                return self.OK, None
            except KeyNotFoundError:
                return self.ERR_NOT_FOUND, None
        raise ServiceError(f"unknown key-value store command: {name!r}")

    def apply(self, command):
        """Execute a :class:`~repro.core.command.Command`; return a Response."""
        err, value = self.execute(command.name, command.args)
        return Response(
            uid=command.uid,
            value=value,
            error=None if err == self.OK else f"err={err}",
        )

    # ------------------------------------------------------------------
    # Checkpointing (recovery contract shared by every service)
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Return a restorable serialisation of the full service state."""
        return {
            "tree": self._tree.checkpoint(),
            "commands_executed": self.commands_executed,
        }

    def restore(self, state):
        """Rebuild the service in place from a :meth:`checkpoint` value."""
        self._tree.restore(state["tree"])
        self.commands_executed = state["commands_executed"]
        return self

    def delta_checkpoint(self):
        """Serialise only the keys written/deleted since the last tracking mark.

        Applying the result (with :meth:`apply_delta`) to a replica whose
        state matches the mark reproduces this replica exactly.  The mark
        moves to now.
        """
        delta = self._tree.delta()
        delta["commands_executed"] = self.commands_executed
        return delta

    def apply_delta(self, state):
        """Advance the service from a chain base by one :meth:`delta_checkpoint`."""
        self._tree.apply_delta(state)
        self.commands_executed = state["commands_executed"]
        return self

    def reset_delta_tracking(self):
        """Move the delta-tracking mark to the current state (a new full base)."""
        self._tree.clear_delta_tracking()

    # ------------------------------------------------------------------
    # State inspection (used to compare replicas in tests)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Return the full key->value mapping (order-independent state digest)."""
        return dict(self._tree.items())

    def checksum(self):
        """A cheap state digest for replica-equality assertions."""
        digest = 0
        for key, value in self._tree.items():
            digest = (digest * 1000003 + hash((key, bytes(value)))) & 0xFFFFFFFFFFFF
        return digest
