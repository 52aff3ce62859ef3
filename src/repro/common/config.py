"""Configuration dataclasses for clusters, multicast, cost models and workloads.

All time quantities are in **seconds** (the simulator's virtual clock unit)
and all sizes are in **bytes**, mirroring the units used throughout the
paper's evaluation (section VII).
"""

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass
class MulticastConfig:
    """Configuration of the atomic multicast substrate (paper section VI-A).

    The paper maps each multicast group to one Paxos instance and batches
    commands into batches of at most 8 Kbytes.  The simulator models that
    ordering by its costs (see :class:`repro.replication.base.SimStream`),
    so only the batching and merge knobs are configurable.
    """

    batch_max_bytes: int = 8 * 1024
    batch_max_commands: int = 64
    batch_timeout: float = 50e-6
    #: Interval at which an idle group coordinator emits a skip so that the
    #: deterministic merge at subscribers does not stall (Multi-Ring Paxos
    #: style); a skip advances the stream's merge horizon under either policy.
    skip_interval: float = 200e-6
    #: Merge policy used by subscribers of multiple streams:
    #: ``"timestamp"`` (merge by coordinator timestamps, the default) or
    #: ``"round_robin"`` (Multi-Ring Paxos deterministic merge with skips).
    merge_policy: str = "timestamp"

    def validate(self):
        if self.batch_max_bytes <= 0:
            raise ConfigurationError("batch_max_bytes must be positive")
        if self.batch_max_commands <= 0:
            raise ConfigurationError("batch_max_commands must be positive")
        if self.merge_policy not in ("round_robin", "timestamp"):
            raise ConfigurationError(
                f"unknown merge_policy: {self.merge_policy!r}"
            )
        return self


@dataclass
class CostModelConfig:
    """CPU/network service times used by the simulation runtime.

    Calibrated so that classic SMR executes roughly 842 Kcps with a single
    thread on the key-value store (the paper's measured figure), and the
    other techniques reproduce the relative factors reported in Figures 3-8.
    """

    #: CPU time to execute one key-value command (B+-tree traversal).
    kv_execute: float = 1.09e-6
    #: CPU time to unmarshal/deliver one command at a worker thread.
    delivery: float = 0.10e-6
    #: CPU time the sP-SMR / no-rep scheduler spends dispatching one command.
    scheduler_dispatch: float = 0.82e-6
    #: Additional scheduler CPU time per worker thread per command (the
    #: scheduler synchronises with more queues as workers are added).
    scheduler_per_worker: float = 0.06e-6
    #: Cost of one inter-thread signal (condition variable) used by P-SMR
    #: barriers and by the sP-SMR scheduler when serialising a dependent
    #: command.
    signal: float = 0.35e-6
    #: Additional cost the sP-SMR / no-rep scheduler pays to drain the worker
    #: pool before a dependent command can run.
    scheduler_drain: float = 1.0e-6
    #: Cost charged to a command delivered through the merged "all groups"
    #: stream (deterministic merge bookkeeping), paid by every thread that
    #: delivers it.
    merge_overhead: float = 1.19e-6
    #: Memory-contention factor: effective CPU time per command is multiplied
    #: by ``1 + contention_alpha * (active_threads - 1)``.
    contention_alpha: float = 0.22
    #: Per-command base cost of the lock-based (BDB-like) server, which pays
    #: for locking, latching and buffer management on every access.
    bdb_command: float = 15.4e-6
    #: Lock-manager contention coefficient of the lock-based server: each
    #: command additionally costs ``bdb_lock_coeff * (threads - 1) ** 2``.
    bdb_lock_coeff: float = 0.1e-6
    #: Time the lock-based server holds the global tree latch for a
    #: structure-modifying command (insert/delete).
    bdb_write_latch: float = 6.0e-6
    #: CPU time a group coordinator spends per batch (proposal serialisation,
    #: Paxos bookkeeping) in addition to pushing the batch through its NIC.
    coordinator_batch_cpu: float = 4.0e-6
    #: One-way network latency between any two nodes.
    net_latency: float = 55e-6
    #: Jitter (uniform, +/-) applied to each network hop.
    net_jitter: float = 10e-6
    #: Network bandwidth per NIC in bytes/second (gigabit).
    nic_bandwidth: float = 125e6
    #: Number of NICs per server node (the paper's nodes have two).
    nics_per_node: int = 2
    #: Factor applied to the execute cost when the key was recently accessed
    #: (models processor caching, visible with Zipfian workloads, Fig. 7).
    cache_hit_factor: float = 0.80
    #: Number of distinct keys considered "recently accessed" per replica.
    cache_size: int = 4096
    #: NetFS: CPU time to execute one file-system call on the in-memory FS.
    fs_execute: float = 7.5e-6
    #: NetFS: CPU time to lz4-compress one kilobyte (paper section VI-C).
    compress_per_kb: float = 2.4e-6
    #: NetFS: CPU time to lz4-decompress one kilobyte.
    decompress_per_kb: float = 1.2e-6
    #: NetFS: scheduler dispatch cost per command (requests are larger).
    fs_scheduler_dispatch: float = 8.4e-6

    def compress_cost(self, size_bytes):
        """CPU time to compress ``size_bytes`` of payload."""
        return max(0.1e-6, self.compress_per_kb * size_bytes / 1024.0)

    def decompress_cost(self, size_bytes):
        """CPU time to decompress ``size_bytes`` of payload."""
        return max(0.1e-6, self.decompress_per_kb * size_bytes / 1024.0)

    def contention_factor(self, active_threads):
        """Multiplier applied to CPU costs when ``active_threads`` share a replica."""
        if active_threads <= 1:
            return 1.0
        return 1.0 + self.contention_alpha * (active_threads - 1)


@dataclass
class ClusterConfig:
    """Topology of a replicated deployment."""

    #: Number of server replicas (the paper deploys two).
    num_replicas: int = 2
    #: Multiprogramming level: worker threads per replica (k in the paper).
    mpl: int = 8
    #: Number of client proxy processes generating load.
    num_clients: int = 32
    #: Outstanding commands each client keeps in flight (paper: window of 50).
    client_window: int = 50
    multicast: MulticastConfig = field(default_factory=MulticastConfig)
    costs: CostModelConfig = field(default_factory=CostModelConfig)
    seed: int = 1

    def validate(self):
        if self.num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self.mpl < 1:
            raise ConfigurationError("mpl must be >= 1")
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.client_window < 1:
            raise ConfigurationError("client_window must be >= 1")
        self.multicast.validate()
        return self


@dataclass
class WorkloadConfig:
    """Describes a synthetic workload for the key-value store experiments."""

    #: Mapping command-name -> fraction of the workload (must sum to 1).
    mix: dict = field(default_factory=lambda: {"read": 1.0})
    #: Number of keys pre-loaded in the store (paper: 10 million).
    key_space: int = 10_000_000
    #: Key-selection distribution: ``"uniform"`` or ``"zipfian"``.
    distribution: str = "uniform"
    #: Zipfian exponent (paper uses 1.0).
    zipf_theta: float = 1.0
    #: Value size in bytes (paper: 8-byte values).
    value_size: int = 8
    seed: int = 7

    def validate(self):
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"workload mix must sum to 1, got {total}")
        if self.key_space < 1:
            raise ConfigurationError("key_space must be >= 1")
        if self.distribution not in ("uniform", "zipfian"):
            raise ConfigurationError(
                f"unknown distribution: {self.distribution!r}"
            )
        return self
