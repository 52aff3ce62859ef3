"""Command signatures and routing declarations.

A service hands P-SMR (a) the signature of each command — its identifier
and parameters — and (b) the command dependencies.  In this implementation
the designer attaches a *routing declaration* to each command descriptor,
from which both the C-Dep table and the C-G function can be derived:

* :class:`Serial` — the command may touch arbitrary parts of the state
  (e.g. B+-tree inserts and deletes, NetFS structural calls); it depends on
  every other command and must reach every group.
* :class:`Keyed` — the command touches the state partition identified by a
  key extracted from its parameters (e.g. the B+-tree entry of key ``k``,
  the NetFS file at a path); it depends on writers of the same key.
* :class:`Free` — the command touches no shared state (or only reads state
  nothing ever writes); it is independent of everything.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.core.command import BATCH


@dataclass(frozen=True)
class Serial:
    """Routing declaration: depends on all commands, multicast to all groups."""

    def kind(self):
        return "serial"


@dataclass(frozen=True)
class Keyed:
    """Routing declaration: conflicts are keyed by ``extractor(args)`` in ``domain``."""

    extractor: Callable[[dict], object]
    domain: str = "default"

    def kind(self):
        return "keyed"


@dataclass(frozen=True)
class Free:
    """Routing declaration: independent of every other command."""

    def kind(self):
        return "free"


@dataclass(frozen=True)
class CommandDescriptor:
    """The signature and semantics of one service command.

    ``params`` documents the input parameters (name, type) pairs; ``writes``
    states whether the command modifies the state it touches — two commands
    conflict only if at least one of them writes (paper section III).
    """

    name: str
    params: Tuple[Tuple[str, str], ...] = ()
    writes: bool = False
    routing: object = field(default_factory=Free)
    doc: str = ""

    def conflict_key(self, args):
        """Return the conflict key of an invocation, or None for Serial/Free."""
        if isinstance(self.routing, Keyed):
            return self.routing.extractor(args)
        return None


class ServiceSpec:
    """The full description of a replicated service: its command descriptors.

    This is what a service designer provides in addition to the server code
    (paper section IV-B).  Client and server proxies are generated from it.
    """

    def __init__(self, name, descriptors):
        self.name = name
        self._descriptors: Dict[str, CommandDescriptor] = {}
        for descriptor in descriptors:
            if descriptor.name == BATCH:
                raise ConfigurationError(
                    f"{BATCH!r} is the reserved name of a batch command"
                )
            if descriptor.name in self._descriptors:
                raise ConfigurationError(f"duplicate command {descriptor.name!r}")
            self._descriptors[descriptor.name] = descriptor

    def __iter__(self):
        return iter(self._descriptors.values())

    def __contains__(self, name):
        return name in self._descriptors

    def command_names(self):
        return list(self._descriptors)

    def descriptor(self, name) -> CommandDescriptor:
        descriptor = self._descriptors.get(name)
        if descriptor is None:
            raise ConfigurationError(
                f"service {self.name!r} has no command {name!r}"
            )
        return descriptor

    def writes(self, name):
        return self.descriptor(name).writes

    def routing(self, name):
        return self.descriptor(name).routing

    def validate(self):
        """Sanity-check the declarations (e.g. a writing Free command is suspicious)."""
        for descriptor in self:
            if isinstance(descriptor.routing, Free) and descriptor.writes:
                raise ConfigurationError(
                    f"command {descriptor.name!r} writes state but is declared Free"
                )
        return self
