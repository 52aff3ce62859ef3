"""Replica process entry point (``python -m repro.runtime.replica_proc``).

One OS process per replica: the coordinator spawns this module with the
replica's identity, service and durable-store directory; it dials back
over TCP, replays the handshake (``hello`` → ``welcome`` → optional
``restore`` → ``start``) and then runs a
:class:`~repro.runtime.engine.ReplicaEngine` — the same engine the
threaded runtime runs in-process — with its two sinks bound to ``r`` /
``c`` frames on the socket.

The receive loop is the process's main thread: each read takes every
frame a burst left in the socket (``wire.FrameReader``) and files the
messages of its ``d`` frames with the replica's
:class:`~repro.runtime.transport.inproc.ReplicaInbox` — the receiving
end the threaded runtime's replicas run too.  Once the workers start,
the inbox hands each worker's run to
:meth:`~repro.runtime.engine.ReplicaEngine.deliver`: for an idle worker
this thread executes the run's leading single-group commands itself and
answers them in one ``r`` frame, and queues the rest (from the first
cut or multi-group command on) for the worker; a busy worker has the
whole run queued.  So on an idle replica a point command is received,
executed and answered on this one thread.  The loop answers the
coordinator's management requests (stats, snapshots, chain donations)
inline too — after the run ahead of them is handed over.  Killing this
process with SIGKILL is therefore a *real* crash: no flushes, no
goodbyes — recovery starts from whatever the checkpoint store's
crash-safe segments hold.
"""

import argparse
import json
import os
import shutil
import sys
import threading

from repro import services
from repro.common.checkpoint import CheckpointPolicy
from repro.common.checkpoint_store import CheckpointStore
from repro.runtime.engine import ReplicaEngine
from repro.runtime.transport import wire
from repro.runtime.transport.inproc import ReplicaInbox

#: ``--service`` -> the name of its server class in :mod:`repro.services`,
#: resolved when the replica starts: a replica loads its own service only.
SERVICES = {
    "kvstore": "KeyValueStoreServer",
    "netfs": "NetFSServer",
}


class ReplicaProcess:
    """The replica-side binding: socket loop, handshake, engine sinks."""

    def __init__(self, sock, replica_id, mpl, service_factory, store):
        self.sock = sock
        self.replica_id = replica_id
        self.mpl = mpl
        self.service_factory = service_factory
        self.store = store
        self.inbox = ReplicaInbox(mpl)
        self.engine = None  # built at ``welcome``, which carries its knobs
        self._write_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Outbound frames (any thread; serialised by the write lock)
    # ------------------------------------------------------------------
    def send(self, message):
        wire.send_message(self.sock, message, lock=self._write_lock)

    def send_responses(self, pending):
        self.send(
            {
                "t": "r",
                "resps": tuple(
                    (uid, response.value, response.error)
                    for uid, response in pending
                ),
            }
        )

    # ------------------------------------------------------------------
    # Handshake (main thread)
    # ------------------------------------------------------------------
    def apply_welcome(self, chain, message):
        policy = None
        if message["full_every"] is not None:
            # ``every_messages=1`` is a placeholder trigger: scheduling
            # lives on the coordinator, the engine only consults the
            # policy's full/delta cadence.
            policy = CheckpointPolicy(
                every_messages=1, full_every=message["full_every"]
            )
        self.engine = ReplicaEngine(
            self.replica_id, self.mpl, self.service_factory, chain, self.store,
            policy, message["barrier_timeout"],
            on_responses=self.send_responses,
            on_cut_done=self.send,
        )

    # ------------------------------------------------------------------
    # Management requests (main thread, inline — all cheap)
    # ------------------------------------------------------------------
    def handle_request(self, message):
        kind = message["t"]
        req = message.get("req")
        engine = self.engine
        if kind == "stats?":
            self.send({"t": "stats", "req": req, **engine.stats()})
        elif kind == "snap?":
            self.send({"t": "snap", "req": req, "state": engine.snapshot()})
        elif kind == "chain?":
            suffix = engine.chain_suffix(message["after"])
            entries = None if suffix is None else wire.encode_chain(suffix)
            self.send({"t": "chain", "req": req, "entries": entries})

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self):
        chain = self.store.load_chain()
        self.send(
            {
                "t": "hello",
                "replica": self.replica_id,
                "watermark": chain[-1]["sequence"] if chain else -1,
                "pid": os.getpid(),
            }
        )
        self.serve(chain)
        if self.engine is not None:
            self.engine.stop()

    def serve(self, chain):
        """Read and dispatch frames until ``bye``, EOF or a corrupt frame."""
        reader = wire.FrameReader(self.sock)
        while True:
            try:
                messages = reader.read()
            except wire.WireError:
                return
            if messages is None:
                return
            for message in messages:
                kind = message.get("t")
                if kind == "d":
                    # ``(s, dst, body)`` as the workers want them: ``dst``
                    # "ALL" or a tuple, the body still the command's
                    # bytes, which each worker decodes off this thread.
                    self.inbox.accept(message["msgs"])
                    continue
                # A control frame cuts the run: everything ordered before
                # it is queued before it is handled.
                self.inbox.flush()
                if kind == "welcome":
                    self.apply_welcome(chain, message)
                elif kind == "restore":
                    self.engine.install(
                        message["mode"],
                        sequence=message["sequence"],
                        state=message["state"],
                        entries=wire.decode_chain(message["entries"]),
                    )
                elif kind == "start":
                    self.engine.start(self.inbox.queues)
                    # From here on an idle worker's run executes on this
                    # thread (ReplicaEngine.deliver).
                    self.inbox.hand = self.engine.deliver
                elif kind == "bye":
                    return
                else:
                    self.handle_request(message)
            self.inbox.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.runtime.replica_proc")
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--replica-id", type=int, required=True)
    parser.add_argument("--mpl", type=int, required=True)
    parser.add_argument("--service", choices=sorted(SERVICES), required=True)
    parser.add_argument("--service-args", default="{}")
    parser.add_argument("--store-dir", required=True)
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard any durable state (a replacement node, not a restart)",
    )
    args = parser.parse_args(argv)

    if args.fresh and os.path.isdir(args.store_dir):
        shutil.rmtree(args.store_dir)
    store = CheckpointStore(args.store_dir)
    service_kwargs = json.loads(args.service_args)
    server_class = getattr(services, SERVICES[args.service])

    def service_factory():
        return server_class(**service_kwargs)

    sock = wire.connect_with_backoff(args.host, args.port)
    try:
        ReplicaProcess(
            sock, args.replica_id, args.mpl, service_factory, store
        ).run()
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
