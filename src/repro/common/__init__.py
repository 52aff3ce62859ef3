"""Common primitives shared by every subsystem.

This package holds the small, dependency-free building blocks: error
types, identifier helpers, configuration dataclasses, seeded random
number helpers and the message/size model used by the simulator and the
threaded runtime alike.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, imported on first access: a
#: replica process never loads the simulator's configuration.
_EXPORTS = {
    "ReproError": "repro.common.errors",
    "ConfigurationError": "repro.common.errors",
    "ProtocolError": "repro.common.errors",
    "ServiceError": "repro.common.errors",
    "KeyNotFoundError": "repro.common.errors",
    "FileSystemError": "repro.common.errors",
    "CheckpointPolicy": "repro.common.checkpoint",
    "IdGenerator": "repro.common.ids",
    "make_command_uid": "repro.common.ids",
    "ClusterConfig": "repro.common.config",
    "MulticastConfig": "repro.common.config",
    "CostModelConfig": "repro.common.config",
    "WorkloadConfig": "repro.common.config",
    "SeededRNG": "repro.common.rng",
    "derive_seed": "repro.common.rng",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
