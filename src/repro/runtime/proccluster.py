"""Process-per-replica P-SMR cluster over the TCP transport.

The coordinator process runs the sequencer (:class:`LocalAtomicMulticast`
with a :class:`TcpCoordinatorTransport`), the clients and the shared
:class:`~repro.runtime.cluster.PSMRControlPlane`; each replica is a
separate OS process (:mod:`repro.runtime.replica_proc`) with its own GIL,
its own :class:`~repro.runtime.engine.ReplicaEngine` and its own durable
:class:`CheckpointStore` directory.  That makes the fault model *real*:

* :meth:`crash_replica` is a literal ``SIGKILL`` — no flushes, no
  goodbye frames, the kernel just stops scheduling the process;
* :meth:`restart_replica_from_disk` re-execs the replica binary, which
  reloads whatever the crash-safe store holds before the control plane's
  replay → chain-suffix → full-transfer negotiation runs;
* a :class:`~repro.common.faults.FaultPlane` plugged into the transport
  delays (a drop is a retransmit backoff) and partitions the actual TCP
  frames of each link, so the nemesis episodes (linearizability oracle
  included) run unchanged against real processes.

What this module adds to the control plane is only the replica handle
(:class:`_ProcReplica`: a ``Popen`` plus a request/reply RPC over the
replica's connection) and the dispatch of inbound frames.  The
coordinator's sockets live on the process's I/O loop
(:mod:`repro.runtime.ioloop`, the thread that serves HTTP too): inbound
frames are dispatched there, an ``r`` frame's answers resolving an HTTP
handler's futures without a hop to another thread, so a management
request (``stats?``, ``snap?``, ``chain?``), a hello, a cut or a
quiescence wait made on that thread is refused instead of waiting for
itself.  A handle
starts its child in two steps, ``launch`` (exec, return at once) and
``handshake`` (wait for ``hello``, answer ``welcome``), so the control
plane launches every child before it waits for the first: a cluster
comes up in about one replica's start-up time, not the sum of them.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import repro
from repro import services
from repro.common.errors import ConfigurationError, RecoveryError
from repro.runtime import ioloop
from repro.runtime.cluster import PSMRControlPlane
from repro.runtime.transport import wire
from repro.runtime.transport.tcp import TcpCoordinatorTransport

#: ``service`` -> the name of its spec in :mod:`repro.services`, resolved
#: when a cluster is built: a kvstore cluster never loads NetFS.
_SPECS = {"kvstore": "KVSTORE_SPEC", "netfs": "NETFS_SPEC"}

#: How long a spawned replica process has to dial in and say ``hello``.
SPAWN_TIMEOUT = 30.0


class _ProcReplica:
    """Process-runtime replica handle: owns a child process.

    Management requests are frames answered by the child's main thread;
    :meth:`_request` pairs each with its reply by a per-handle id.
    """

    def __init__(self, cluster, replica_id, store_path):
        self.cluster = cluster
        self.replica_id = replica_id
        self.store_path = store_path
        self.proc = None
        self.pid = None
        self.crashed = False
        self.watermark = -1
        self.needs_full_transfer = False
        #: Spawn counter: per-generation bookkeeping (boundary-violation
        #: counters restart at zero in every fresh process).
        self.generation = 0
        self._requests = {}  # request id -> [Event, reply]
        self._request_ids = itertools.count()
        self._lock = threading.Lock()

    def _send(self, message):
        return self.cluster.transport.control_send(self.replica_id, message)

    # ------------------------------------------------------------------
    # Incarnations
    # ------------------------------------------------------------------
    def launch(self, from_disk):
        """Arm the hello waiter and exec the replica binary; return at once.

        A killed process keeps nothing in memory, and without ``from_disk``
        the replacement discards the store too (``--fresh``: a replacement
        node, not a restart) — so it reports an empty chain and recovery
        is always a full transfer.  :meth:`handshake` completes the start.
        """
        cluster = self.cluster
        transport = cluster.transport
        transport.discard_hello(self.replica_id)
        self.pid = None  # until the hello names it
        command = [
            sys.executable, "-m", "repro.runtime.replica_proc",
            "--host", transport.host,
            "--port", str(transport.port),
            "--replica-id", str(self.replica_id),
            "--mpl", str(cluster.mpl),
            "--service", cluster.service,
            "--service-args", json.dumps(cluster.service_args),
            "--store-dir", self.store_path,
        ]
        if not from_disk:
            command.append("--fresh")
        env = dict(os.environ)
        # ``repro`` is a namespace package (no __init__.py), so locate the
        # import root via __path__ rather than __file__.
        src_root = os.path.dirname(os.path.abspath(list(repro.__path__)[0]))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        self.proc = subprocess.Popen(command, env=env)
        self.generation += 1

    def handshake(self):
        """Wait for the launched child's ``hello``, answer ``welcome``, and
        return the watermark it reported; a child that never says hello
        is killed and :class:`RecoveryError` raised."""
        cluster = self.cluster
        try:
            hello = cluster.transport.take_hello(
                self.replica_id, timeout=SPAWN_TIMEOUT
            )
        except RecoveryError:
            self.kill()
            raise
        self.pid = hello["pid"]
        policy = cluster.checkpoint_policy
        self._send(
            {
                "t": "welcome",
                "barrier_timeout": cluster.barrier_timeout,
                "full_every": policy.full_every if policy else None,
            }
        )
        return hello["watermark"]

    def kill(self):
        """A literal ``SIGKILL``; then wake every management request still
        waiting on the dead process (it raises :class:`RecoveryError`)."""
        if self.proc is not None:
            self.proc.kill()  # a no-op once the process has been reaped
            self.proc.wait(timeout=10.0)
        with self._lock:
            waiting = list(self._requests.values())
        for entry in waiting:
            entry[0].set()

    def install(self, mode, sequence=None, state=None, entries=()):
        self._send(
            {
                "t": "restore",
                "mode": mode,
                "sequence": sequence,
                "state": state,
                "entries": wire.encode_chain(entries),
            }
        )

    def start(self):
        self._send({"t": "start"})

    def stop(self):
        """Clean exit: ask, wait, and only then insist.  A child launched
        but never handshaken may not have dialled in yet, so it is not
        asked."""
        if self.proc is None:
            return
        if self.pid is None:
            self.kill()
            return
        self._send({"t": "bye"})
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.kill()

    # ------------------------------------------------------------------
    # Management requests (cluster threads, never the I/O loop's)
    # ------------------------------------------------------------------
    def _request(self, message, timeout=None):
        ioloop.forbid_blocking("a management request")
        request_id = next(self._request_ids)
        entry = [threading.Event(), None]
        with self._lock:
            self._requests[request_id] = entry
        try:
            # Checked after publishing the entry: ``crash_replica`` sets
            # ``crashed`` before ``kill`` scans the pending requests, so
            # one of the two sides must observe the other.
            if self.crashed or not self._send(dict(message, req=request_id)):
                raise RecoveryError(
                    f"replica {self.replica_id} has no live connection"
                )
            if timeout is None:
                timeout = self.cluster.barrier_timeout
            if not entry[0].wait(timeout):
                raise TimeoutError(
                    f"replica {self.replica_id} did not answer "
                    f"{message['t']!r} within {timeout}s"
                )
        finally:
            with self._lock:
                del self._requests[request_id]
        if entry[1] is None:
            raise RecoveryError(
                f"replica {self.replica_id} crashed before answering "
                f"{message['t']!r}"
            )
        return entry[1]

    def _reply(self, message):
        """Loop thread: hand a reply frame to its waiting request."""
        with self._lock:
            entry = self._requests.get(message.get("req"))
        if entry is not None:
            entry[1] = message
            entry[0].set()

    def stats(self):
        return self._request({"t": "stats?"}, timeout=5.0)

    def snapshot(self):
        return self._request({"t": "snap?"})["state"]

    def chain_suffix(self, after):
        entries = self._request({"t": "chain?", "after": after})["entries"]
        return None if entries is None else wire.decode_chain(entries)


class ProcessPSMRCluster(PSMRControlPlane):
    """A P-SMR deployment where every replica is its own OS process.

    ``service`` names the replicated state machine (``"kvstore"`` or
    ``"netfs"``); ``service_args`` (a JSON-able dict) parameterises it in
    the child.  ``store_dir`` roots the per-replica durable checkpoint
    stores; when omitted the cluster owns a temporary directory and
    removes it at shutdown.  The transport is a socket, so commands
    travel encoded (:func:`~repro.common.codec.encode_command`).
    """

    def __init__(self, spec=None, service="kvstore", service_args=None,
                 mpl=4, num_replicas=2, barrier_timeout=10.0, seed=0,
                 log_retention=None, checkpoint_policy=None, store_dir=None,
                 fault_plane=None, host="127.0.0.1", shard_map=None):
        if service not in _SPECS:
            raise ConfigurationError(f"unknown service {service!r}")
        if spec is None:
            spec = getattr(services, _SPECS[service])
        self.fault_plane = fault_plane
        self.transport = TcpCoordinatorTransport(
            fault_plane, on_message=self._on_message, host=host
        )
        super().__init__(
            spec, mpl,
            self.transport, log_retention,
            num_replicas, barrier_timeout, seed, checkpoint_policy, shard_map,
        )
        self.service = service
        self.service_args = dict(service_args or {})
        self._own_store_dir = None
        if store_dir is None:
            store_dir = self._own_store_dir = tempfile.mkdtemp(
                prefix="psmr-proc-"
            )
        self.store_dir = store_dir
        self.replicas = [
            _ProcReplica(
                self, replica_id, os.path.join(store_dir, f"replica-{replica_id}")
            )
            for replica_id in range(num_replicas)
        ]

    def start(self):
        if self._started:
            return self
        self.transport.start()
        try:
            return super().start()
        except BaseException:
            # ``__enter__`` raised, so ``__exit__`` will not run: reap the
            # children launched so far (handshaken or not), the transport's
            # sockets and the owned temp store here.
            self.shutdown()
            raise

    def shutdown(self):
        super().shutdown()
        self.transport.close()
        if self._own_store_dir is not None:
            shutil.rmtree(self._own_store_dir, ignore_errors=True)

    def _on_message(self, replica_id, message):
        """Inbound frames (the I/O loop's thread — handlers must stay
        cheap and never block)."""
        kind = message.get("t")
        if kind == "r":
            self._respond_many(message["resps"], replica_id)
        elif kind == "c":
            self._handle_cut_done(replica_id, message)
        else:  # the reply to a management request
            self.replicas[replica_id]._reply(message)
