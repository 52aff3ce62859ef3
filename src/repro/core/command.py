"""Commands and responses exchanged between client proxies and replicas."""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: The reserved name of a batch command: its ``args`` are ``{"calls":
#: [(name, args), ...]}``, independent calls of the service that the C-G
#: function sends to the same destinations (see
#: :meth:`~repro.core.cg.CGFunction.batches`).  A replica applies them in
#: order and answers once, with ``[(value, error), ...]``.  No service may
#: declare a command of this name.
BATCH = "__batch__"


@dataclass
class Command:
    """A marshalled client invocation.

    ``uid`` is the pair (client id, per-client sequence number); ``name`` is
    the command identifier from the service's signatures; ``args`` carries
    the marshalled input parameters.  ``size_bytes`` is the wire size used
    for batching and bandwidth accounting.
    """

    uid: Tuple[int, int]
    name: str
    args: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 64
    #: Filled by the client proxy: the multicast groups the command was
    #: addressed to (the gamma of Algorithm 1).
    destinations: Optional[frozenset] = None
    #: Submission timestamp (set by the client proxy, used for latency).
    submitted_at: float = 0.0

    @property
    def client_id(self):
        return self.uid[0]

    @property
    def sequence(self):
        return self.uid[1]

    def __hash__(self):
        return hash(self.uid)


@dataclass
class Response:
    """The output of a command execution sent back to the client proxy."""

    uid: Tuple[int, int]
    value: Any = None
    error: Optional[str] = None
    replica_id: int = -1
    executed_at: float = 0.0
    size_bytes: int = 64

    @property
    def ok(self):
        return self.error is None
