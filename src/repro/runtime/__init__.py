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

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it.  Resolved on first access
#: (PEP 562), so a replica process, which imports only the engine side of
#: this package, never loads the coordinator, the cluster handles or the
#: history checker.
_EXPORTS = {
    "CheckpointPolicy": "repro.common.checkpoint",
    "LocalAtomicMulticast": "repro.runtime.multicast",
    "ProcessPSMRCluster": "repro.runtime.proccluster",
    "ThreadedPSMRCluster": "repro.runtime.cluster",
    "ThreadedClient": "repro.runtime.cluster",
    "HistoryRecorder": "repro.runtime.linearizability",
    "Operation": "repro.runtime.linearizability",
    "check_kv_history": "repro.runtime.linearizability",
    "check_linearizable": "repro.runtime.linearizability",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

