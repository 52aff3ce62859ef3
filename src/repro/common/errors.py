"""Exception hierarchy for the P-SMR reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class ProtocolError(ReproError):
    """Raised when a replication or consensus protocol invariant is violated."""


class ServiceError(ReproError):
    """Base class for errors returned by replicated services."""


class KeyNotFoundError(ServiceError):
    """Raised by the key-value store when a key does not exist."""

    def __init__(self, key):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class KeyAlreadyExistsError(ServiceError):
    """Raised by the key-value store when inserting a duplicate key."""

    def __init__(self, key):
        super().__init__(f"key already exists: {key!r}")
        self.key = key


class FileSystemError(ServiceError):
    """Raised by the in-memory file system; carries a POSIX-style errno name."""

    def __init__(self, errno_name, message):
        super().__init__(f"{errno_name}: {message}")
        self.errno_name = errno_name


class SimulationError(ReproError):
    """Raised when the discrete-event simulation kernel detects misuse."""


class ReplicaCrashedError(ReproError):
    """Raised inside a replica's worker threads when the replica is crashed.

    Used by the threaded runtime to unwind workers parked on barriers or
    delivery queues so a :meth:`crash_replica` call terminates promptly.
    """


class CheckpointError(ReproError):
    """Raised when a checkpoint chain or durable checkpoint store is malformed.

    Examples: restoring an empty or delta-first chain, or one holding a
    second full base.  Distinct from :class:`RecoveryError` (lifecycle misuse) and
    :class:`ConfigurationError` (bad knob values): a ``CheckpointError``
    means the checkpoint *data* itself cannot be used.
    """


class RecoveryError(ReproError):
    """Raised when a crash/recovery lifecycle operation is invalid.

    Examples: crashing the last live replica, recovering a replica that is
    not crashed, or replaying a multicast log suffix that has already been
    truncated past the requested checkpoint.
    """


class LinearizabilityViolation(ReproError):
    """Raised by the linearizability checker when no valid serialization exists."""


class StaleShardRouteError(ReproError):
    """Raised when a command was routed with an outdated shard-map version.

    The multicast sequencer raises this *before* the command consumes a
    sequence number, so nothing is delivered anywhere; the client proxy
    re-routes against the freshly installed shard map and retries.  This
    is the mechanism that keeps routing consistent across a live shard
    migration: a command is either ordered before the map update with the
    old routing, or after it with the new one — never a mix.
    """


class BlockingOnLoopError(ReproError):
    """Raised when a blocking wait is called on the process's I/O loop thread.

    Replica links, the frame pump and the HTTP edge all run on that one
    loop (:mod:`repro.runtime.ioloop`), so a wait for an answer, a reply,
    a hello, a cut or a quiescent cluster made there would wait for the
    very thread it holds.  It is refused at once instead of deadlocking.
    """
