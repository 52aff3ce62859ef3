"""Live runtimes: the P-SMR protocol on real threads and real processes.

The simulation (:mod:`repro.replication`) reproduces the paper's
*performance* results; this package runs the same protocol logic for
real, so correctness properties — replica state equality,
linearizability, deadlock freedom, crash recovery — can be exercised end
to end.  The threaded runtime shares one GIL and makes no performance
claims; the process runtime gives every replica its own.

* :mod:`~repro.runtime.multicast` — the sequencer: a global order
  assigned under a lock, a retained replay log, and a pluggable
  :mod:`~repro.runtime.transport` (in-process queues, or TCP frames).
  Every thread of every replica observes the same interleaving of its
  group and ``g_all`` — the property the paper's deterministic merge
  provides.
* :mod:`~repro.runtime.engine` — :class:`ReplicaEngine`, one replica:
  service, ``mpl`` batch-draining workers, barriers, checkpoint chain.
* :mod:`~repro.runtime.cluster` — the control plane written once over a
  replica-handle interface (clients, consistent cuts, scheduler,
  truncation, the recovery ladder), and :class:`ThreadedPSMRCluster`,
  whose handle owns an engine in-process.
* :mod:`~repro.runtime.proccluster` / :mod:`~repro.runtime.replica_proc`
  — :class:`ProcessPSMRCluster`, whose handle owns a child process that
  runs the same engine behind a socket.
* :mod:`~repro.runtime.linearizability` — the history checker.
"""

from repro.common.checkpoint import CheckpointPolicy
from repro.runtime.multicast import LocalAtomicMulticast
from repro.runtime.cluster import ThreadedPSMRCluster, ThreadedClient
from repro.runtime.proccluster import ProcessPSMRCluster
from repro.runtime.linearizability import (
    HistoryRecorder,
    Operation,
    check_kv_history,
    check_linearizable,
)

__all__ = [
    "CheckpointPolicy",
    "LocalAtomicMulticast",
    "ProcessPSMRCluster",
    "ThreadedPSMRCluster",
    "ThreadedClient",
    "HistoryRecorder",
    "Operation",
    "check_kv_history",
    "check_linearizable",
]
