"""Helpers that build and run one technique under one workload."""

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.harness.tables import format_table
from repro.replication import (
    KVCostProfile,
    LockStoreSystem,
    NetFSCostProfile,
    NoRepSystem,
    PSMRSystem,
    SMRSystem,
    SPSMRSystem,
)
from repro.services.kvstore import KVSTORE_SPEC
from repro.services.netfs import NETFS_SPEC
from repro.workload import KVWorkloadGenerator, NetFSWorkloadGenerator, READ_ONLY_MIX

#: Default simulated warmup and measurement durations (seconds of virtual time).
DEFAULT_WARMUP = 0.02
DEFAULT_DURATION = 0.05


def default_clients(technique, threads):
    """Client processes used to drive a technique to its peak throughput.

    Each client keeps a window of 50 outstanding commands (section VI-B); a
    technique with more worker threads needs more offered load to saturate,
    which is also why its latency at peak is higher (section VII-C).  The
    per-technique constants reproduce the paper's latency ordering at peak
    (P-SMR > sP-SMR > no-rep > SMR).
    """
    if technique == "BDB":
        return max(10, 2 * threads)
    if technique == "SMR":
        return 40
    if technique == "no-rep":
        return 28 + 14 * threads
    if technique == "sP-SMR":
        return 32 + 15 * threads
    return 25 + 22 * threads


def _base_config(threads, num_clients, seed, num_replicas=2):
    return ClusterConfig(
        num_replicas=num_replicas,
        mpl=max(1, threads),
        num_clients=num_clients,
        client_window=50,
        seed=seed,
    )


def build_kv_system(
    technique,
    threads,
    mix=None,
    distribution="uniform",
    zipf_theta=1.0,
    key_space=10_000_000,
    num_clients=None,
    seed=1,
    coarse_cg=False,
    merge_policy=None,
    batch_max_bytes=None,
    execute_state=False,
    initial_keys=0,
):
    """Construct (but do not run) one technique over the key-value store."""
    mix = mix if mix is not None else READ_ONLY_MIX
    num_clients = num_clients if num_clients is not None else default_clients(technique, threads)
    num_replicas = 1 if technique in ("no-rep", "BDB") else 2
    config = _base_config(threads, num_clients, seed, num_replicas=num_replicas)
    if batch_max_bytes is not None:
        config.multicast.batch_max_bytes = batch_max_bytes
        # Keep the command-count cap from masking the byte limit.
        config.multicast.batch_max_commands = max(4, batch_max_bytes // 64)
    generator = KVWorkloadGenerator(
        mix=mix,
        key_space=key_space,
        distribution=distribution,
        zipf_theta=zipf_theta,
        seed=seed + 100,
    )
    profile = KVCostProfile(config.costs)
    state_factory = None
    if execute_state:
        from repro.services.kvstore import KeyValueStoreServer

        state_factory = lambda: KeyValueStoreServer(initial_keys=initial_keys)  # noqa: E731

    if technique == "P-SMR":
        return PSMRSystem(
            config, generator, profile, spec=KVSTORE_SPEC, coarse_cg=coarse_cg,
            merge_policy=merge_policy, execute_state=execute_state,
            state_factory=state_factory,
        )
    if technique == "SMR":
        return SMRSystem(
            config, generator, profile, execute_state=execute_state,
            state_factory=state_factory,
        )
    if technique == "sP-SMR":
        return SPSMRSystem(
            config, generator, profile, spec=KVSTORE_SPEC, workers=threads,
            execute_state=execute_state, state_factory=state_factory,
        )
    if technique == "no-rep":
        return NoRepSystem(
            config, generator, profile, spec=KVSTORE_SPEC, workers=threads,
            execute_state=execute_state, state_factory=state_factory,
        )
    if technique == "BDB":
        return LockStoreSystem(
            config, generator, profile, spec=KVSTORE_SPEC, threads=threads,
            execute_state=execute_state, state_factory=state_factory,
        )
    raise ConfigurationError(f"unknown technique: {technique!r}")


def run_kv_technique(technique, threads, warmup=DEFAULT_WARMUP, duration=DEFAULT_DURATION, **kwargs):
    """Build and run one key-value store experiment; return the ExperimentResult."""
    system = build_kv_system(technique, threads, **kwargs)
    return system.run(warmup=warmup, duration=duration)


def run_peak_comparison(figure, title, threads, paper_factors, mix, warmup, duration,
                        seed, techniques=None):
    """Run each technique at its ``threads`` count under ``mix`` (Figures 3, 4).

    Returns the rows (with throughput relative to SMR next to the paper's
    factor), the raw results, their latency CDFs and a formatted table.
    """
    techniques = techniques or list(threads)
    results = {}
    for technique in techniques:
        results[technique] = run_kv_technique(
            technique,
            threads[technique],
            mix=mix,
            warmup=warmup,
            duration=duration,
            seed=seed,
        )
    smr_kcps = results.get("SMR").throughput_kcps if "SMR" in results else None
    rows = []
    for technique in techniques:
        result = results[technique]
        row = result.as_row()
        row["factor_vs_SMR"] = (
            round(result.throughput_kcps / smr_kcps, 2) if smr_kcps else None
        )
        row["paper_factor"] = paper_factors[technique]
        rows.append(row)
    return {
        "figure": figure,
        "rows": rows,
        "results": results,
        "latency_cdfs": {t: results[t].latency_cdf for t in techniques},
        "text": format_table(
            rows,
            columns=[
                "technique", "threads", "throughput_kcps", "factor_vs_SMR",
                "paper_factor", "avg_latency_ms", "cpu_percent",
            ],
            title=title,
        ),
    }


def build_netfs_system(
    technique,
    threads,
    operation="read",
    num_clients=None,
    seed=1,
    execute_state=False,
):
    """Construct one technique over NetFS (paper section VII-H)."""
    num_clients = num_clients if num_clients is not None else default_clients(technique, threads)
    num_replicas = 1 if technique in ("no-rep", "BDB") else 2
    config = _base_config(threads, num_clients, seed, num_replicas=num_replicas)
    generator = NetFSWorkloadGenerator(operation=operation, seed=seed + 200)
    profile = NetFSCostProfile(config.costs)
    state_factory = None
    if execute_state:
        from repro.services.netfs import NetFSServer

        def state_factory():
            server = NetFSServer()
            for directory in generator.directories():
                server.fs.mkdir(directory)
            for path in generator.file_paths():
                server.fs.mknod(path)
            return server

    if technique == "P-SMR":
        return PSMRSystem(
            config, generator, profile, spec=NETFS_SPEC,
            execute_state=execute_state, state_factory=state_factory,
        )
    if technique == "SMR":
        return SMRSystem(
            config, generator, profile, execute_state=execute_state,
            state_factory=state_factory,
        )
    if technique == "sP-SMR":
        return SPSMRSystem(
            config, generator, profile, spec=NETFS_SPEC, workers=threads,
            execute_state=execute_state, state_factory=state_factory,
        )
    raise ConfigurationError(f"NetFS is evaluated with SMR, sP-SMR and P-SMR only")


def run_netfs_technique(technique, threads, operation="read", warmup=DEFAULT_WARMUP,
                        duration=DEFAULT_DURATION, **kwargs):
    """Build and run one NetFS experiment; return the ExperimentResult."""
    system = build_netfs_system(technique, threads, operation=operation, **kwargs)
    return system.run(warmup=warmup, duration=duration)
