"""Common primitives shared by every subsystem.

This package holds the small, dependency-free building blocks: error
types, identifier helpers, configuration dataclasses, seeded random
number helpers and the message/size model used by the simulator and the
threaded runtime alike.
"""

from repro.common.errors import (
    ReproError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    KeyNotFoundError,
    FileSystemError,
)
from repro.common.checkpoint import CheckpointPolicy
from repro.common.ids import IdGenerator, make_command_uid
from repro.common.config import (
    ClusterConfig,
    MulticastConfig,
    CostModelConfig,
    WorkloadConfig,
)
from repro.common.rng import SeededRNG, derive_seed

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "ServiceError",
    "KeyNotFoundError",
    "FileSystemError",
    "CheckpointPolicy",
    "IdGenerator",
    "make_command_uid",
    "ClusterConfig",
    "MulticastConfig",
    "CostModelConfig",
    "WorkloadConfig",
    "SeededRNG",
    "derive_seed",
]
