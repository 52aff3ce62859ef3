"""Simulated deployments of every technique in the paper's evaluation.

* :mod:`repro.replication.psmr`   — Parallel State-Machine Replication (the contribution);
* :mod:`repro.replication.smr`    — classic single-threaded state-machine replication;
* :mod:`repro.replication.spsmr`  — semi-parallel SMR (scheduler + worker pool over a total order);
* :mod:`repro.replication.norep`  — unreplicated multi-threaded server with a scheduler;
* :mod:`repro.replication.lockstore` — unreplicated lock-based multi-threaded server (BDB-like).

Every system exposes the same interface: construct it with a
:class:`~repro.common.config.ClusterConfig`, a workload generator and a cost
profile, then ``run(warmup, duration)`` to obtain an
:class:`~repro.metrics.results.ExperimentResult`.
"""

from repro.replication.costmodel import KVCostProfile, NetFSCostProfile
from repro.replication.psmr import PSMRSystem
from repro.replication.smr import SMRSystem
from repro.replication.spsmr import SPSMRSystem
from repro.replication.norep import NoRepSystem
from repro.replication.lockstore import LockStoreSystem

TECHNIQUES = {
    "P-SMR": PSMRSystem,
    "SMR": SMRSystem,
    "sP-SMR": SPSMRSystem,
    "no-rep": NoRepSystem,
    "BDB": LockStoreSystem,
}

__all__ = [
    "KVCostProfile",
    "NetFSCostProfile",
    "PSMRSystem",
    "SMRSystem",
    "SPSMRSystem",
    "NoRepSystem",
    "LockStoreSystem",
    "TECHNIQUES",
]
