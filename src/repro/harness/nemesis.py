"""Seeded nemesis episodes: one live skeleton, and what each episode plugs in.

An *episode* is one randomized adversarial run whose every random choice
descends from one seed.  It drives a schedule against a cluster that is
serving recorded traffic, then heals the network, recovers every crashed
replica, drains, and checks the oracle the paper's correctness claim
(section IV-E) rests on:

(a) the recorded history is linearizable (checked per key — every KV
    command touches exactly one key, so locality applies);
(b) all replicas converge to identical service state, all of them live;
(c) the multicast drained and ``marker_boundary_violations == 0``.

:func:`_run_live_episode` is that skeleton, written once: traffic threads
(started, stopped, joined and *accounted for* — one that died or hung is a
failure, not a shorter history), the loop that applies the schedule with
its ``skipped`` bookkeeping, the final heal / recover / quiesce, the
oracle, the history dump and the ``failures -> ok`` fold.  Each live
episode supplies its cluster, its own report fields and failure clauses,
and:

* :func:`run_live_nemesis_episode` — KV clients on threads; a
  :class:`Nemesis` plan (threaded or process runtime);
* :func:`run_shard_migration_episode` — the same clients with a skewed
  loader; rounds of ``rebalance_shards``;
* :func:`run_frontend_nemesis_episode` — HTTP coroutines on one thread; a
  :class:`Nemesis` plan.

Runners take only what a caller ever varies; the rest are the constants
below.  Every report carries a ``reproduce`` string, the call that
regenerates its plan; :func:`assert_episode_ok` prints it and writes a
JSON artifact (seed, plan, history) when a check fails.
"""

import collections
import dataclasses
import hashlib
import json
import os
import random
import threading
import time
from functools import partial
from types import SimpleNamespace

from repro.common.checkpoint import CheckpointPolicy
from repro.common.errors import LinearizabilityViolation, RecoveryError
from repro.common.faults import FaultPlane, Nemesis
from repro.common.rng import derive_seed
from repro.runtime import (
    HistoryRecorder,
    ProcessPSMRCluster,
    ThreadedPSMRCluster,
    check_kv_history,
)
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

#: Op kinds per episode.  ``restart_disk`` needs a live cluster with a
#: durable store (the live episode drops it without one); the frontend
#: episode runs without a store.
THREADED_KINDS = ("partition", "heal", "crash", "recover", "restart_disk", "checkpoint")
FRONTEND_KINDS = ("partition", "heal", "crash", "recover", "checkpoint")

#: Shared by every live episode: recorded probe clients and the two keys
#: they contend on (absent at start), unrecorded background generators.
PROBE_CLIENTS = 2
PROBE_KEYS = (900, 901)
BACKGROUND = 2
BARRIER_TIMEOUT = 15.0
CHECKPOINT_TIMEOUT = 10.0
CHECKPOINT_POLICY = CheckpointPolicy(every_messages=400, full_every=3)

#: The live fault-plan episode, where the runtimes really differ: process
#: spawn and full-transfer recoveries take real fractions of a second, so
#: ``proc`` spaces its ops wider and waits longer.
LIVE = {
    "threaded": {"num_replicas": 3, "mpl": 3, "steps": 8, "mean_gap": 0.08, "probe_ops": 12,
                 "load_keys": 48, "invoke_timeout": 15.0, "quiesce_timeout": 30.0},
    "proc": {"num_replicas": 3, "mpl": 2, "steps": 6, "mean_gap": 0.3, "probe_ops": 10,
             "load_keys": 48, "invoke_timeout": 30.0, "quiesce_timeout": 60.0},
}
FRONTEND = {"num_replicas": 3, "mpl": 3, "steps": 6, "mean_gap": 0.08, "probe_ops": 12,
            "load_keys": 48, "invoke_timeout": 15.0, "quiesce_timeout": 30.0,
            "max_in_flight": 64}
SHARD = {"num_replicas": 2, "mpl": 4, "key_space": 4096, "probe_ops": 10,
         "load_keys": 64, "invoke_timeout": 15.0, "quiesce_timeout": 30.0,
         "migrations": 2, "migration_gap": 0.2}


# ----------------------------------------------------------------------
# Helpers every episode shares
# ----------------------------------------------------------------------

def _fault_plan(runtime, runner, arguments, shape, kinds, **plane_options):
    """The seed's fault plane (randomized per-link faults), plan and report."""
    seed = arguments["seed"]
    rng = random.Random(derive_seed(seed, "links"))
    profile = {
        "drop": rng.uniform(0.0, 0.25),
        "delay": rng.uniform(0.0, 0.4),
        "delay_range": (0.0005, 0.004),
    }
    plane = FaultPlane(seed=derive_seed(seed, "plane"), **plane_options)
    plane.set_link(**profile)
    nemesis = Nemesis(seed, shape["num_replicas"], steps=shape["steps"],
                      mean_gap=shape["mean_gap"], kinds=kinds)
    report = _new_report(runtime, runner, arguments, [op.describe() for op in nemesis.plan])
    report["link_profile"] = dict(profile, delay_range=list(profile["delay_range"]))
    return plane, nemesis, report


def _new_report(runtime, runner, arguments, plan):
    """``arguments`` is everything ``runner`` was called with, defaults resolved."""
    return {
        "runtime": runtime,
        "seed": arguments["seed"],
        "reproduce": "{}({})".format(
            runner.__name__, ", ".join(f"{k}={v!r}" for k, v in arguments.items())
        ),
        "plan": plan,
        "applied": [],
        "failures": [],
        "load_errors": [],
        "recovery_s": [],
    }


def _fault_actions(plane, cluster, report):
    """The one ``{kind: action(target)}`` table a plan is dispatched through."""
    def timed(method):
        def recover(replica_id):
            started = time.monotonic()
            getattr(cluster, method)(replica_id)
            report["recovery_s"].append(time.monotonic() - started)
        return recover

    return {
        "partition": lambda target: plane.isolate(f"replica{target}"),
        "heal": lambda _target: plane.heal(),
        "crash": lambda target: cluster.crash_replica(target),
        "recover": timed("recover_replica"),
        "restart_disk": timed("restart_replica_from_disk"),
        "checkpoint": lambda _target: cluster.periodic_checkpoint(timeout=CHECKPOINT_TIMEOUT),
    }


def _apply(report, label, action):
    """Run one scheduled action; one the cluster refuses is ``skipped``.

    A refusal (recovering a replica whose marker is already in flight, a
    checkpoint that times out behind a fault) is the plan meeting the
    cluster's state, not a failure: the episode continues.
    """
    status, detail = "ok", ""
    try:
        action()
    except (RecoveryError, TimeoutError) as exc:
        status, detail = "skipped", f"{type(exc).__name__}: {exc}"
    report["applied"].append({"op": label, "status": status, "detail": detail})


def _check_history(report, operations):
    try:
        check_kv_history(operations, initial_state={})
        report["linearizable"] = True
    except LinearizabilityViolation as violation:
        report["linearizable"] = False
        report["failures"].append(f"linearizability: {violation}")
    report["probe_operations"] = len(operations)


def _fold(report, clauses):
    """Append the message of every clause that fired; ``ok`` = no failures."""
    report["failures"] += [message for fired, message in clauses if fired]
    report["ok"] = not report["failures"]
    return report


# ----------------------------------------------------------------------
# The live skeleton
# ----------------------------------------------------------------------

def _run_live_episode(report, cluster, shape, *, plane, traffic, schedule, disk_restart=False):
    """Drive one schedule against a live cluster under traffic; fill ``report``.

    The cluster is touched only through the surface both runtimes share;
    ``shape`` is the episode's constants table.  The episode's hooks each
    take ``live`` (cluster, report, recorder, stop event, start time and
    the ``{kind: action}`` dispatch table):

    * ``traffic(live)`` -> ``[(thread name, body)]``, called on the started
      cluster; bodies run until done or until ``live.stop`` is set;
    * ``schedule(live)`` -> iterable of ``(label, action)`` that paces
      itself (it sleeps before it yields).

    Never raises for oracle failures — feed the report to
    :func:`assert_episode_ok`.
    """
    live = SimpleNamespace(
        cluster=cluster, report=report, recorder=HistoryRecorder(),
        stop=threading.Event(), started_at=time.monotonic(),
        actions=_fault_actions(plane, cluster, report),
    )
    quiesce_timeout = shape["quiesce_timeout"]
    died = {}

    def guarded(name, body):
        def run():
            try:
                body()
            except Exception as exc:  # an episode failure, folded in below
                died[name] = exc
        return threading.Thread(target=run, name=name, daemon=True)

    try:
        with cluster:
            if disk_restart:
                # Seed the durable chains so restart_disk ops have a base.
                cluster.periodic_checkpoint(timeout=CHECKPOINT_TIMEOUT)
            threads = [guarded(name, body) for name, body in traffic(live)]
            for thread in threads:
                thread.start()
            for label, action in schedule(live):
                _apply(report, label, action)
            live.stop.set()
            for thread in threads:
                thread.join(timeout=quiesce_timeout)
            stuck = [thread.name for thread in threads if thread.is_alive()]
            operations = list(live.recorder.operations)
            # Final phase: heal, recover everyone, drain, check the oracle.
            if plane is not None:
                plane.heal()
            rejoin = live.actions["restart_disk" if disk_restart else "recover"]
            for replica in cluster.replicas:
                if not replica.crashed:
                    continue
                try:
                    rejoin(replica.replica_id)
                except (RecoveryError, TimeoutError):
                    live.actions["recover"](replica.replica_id)
            cluster.wait_for_quiescence(timeout=quiesce_timeout)
            report["drained"] = cluster.multicast.pending_count() == 0
            snapshots = cluster.replica_snapshots(quiesce=False)
            report["converged"] = all(s == snapshots[0] for s in snapshots)
            report["live_replicas"] = len(snapshots)
            report["marker_boundary_violations"] = cluster.marker_boundary_violations
    finally:
        live.stop.set()
    _check_history(report, operations)
    report["elapsed_s"] = time.monotonic() - live.started_at
    if plane is not None:
        report["plane_stats"] = dict(plane.stats)
        report["schedule_digest"] = hashlib.sha256(plane.schedule_bytes()).hexdigest()
    # Raw values: the artifact writer reprs what JSON cannot carry.
    report["history"] = [dataclasses.asdict(op) for op in operations]
    expected = PROBE_CLIENTS * shape["probe_ops"]
    return _fold(report, [
        # Three ways the history is shorter than the episode claims to have
        # checked: say so instead of passing the oracle on what is left.
        (stuck, f"traffic threads outlived their {quiesce_timeout}s join: {stuck}"),
        (died, f"traffic threads died: {died}"),
        (len(operations) != expected,
         f"history holds {len(operations)} probe operations, expected {expected}"),
        (not report["drained"], "multicast did not drain"),
        (not report["converged"], "replica states diverged"),
        (report["live_replicas"] != shape["num_replicas"],
         "not every replica was live at the end"),
        (report["marker_boundary_violations"] != 0, "marker boundary violations observed"),
        (report["load_errors"], f"{len(report['load_errors'])} load invocations timed out"),
    ])


def _plan_schedule(plan):
    """A schedule that yields each nemesis op at its offset from the start."""
    def schedule(live):
        for op in plan:
            delay = live.started_at + op.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            yield op.describe(), partial(live.actions[op.kind], op.target)
    return schedule


def _probe_commands(rng, index, prefix, probe_ops):
    """One probe client's commands: both clients contend on ``PROBE_KEYS``."""
    for op_index in range(probe_ops):
        key = PROBE_KEYS[(index + op_index) % len(PROBE_KEYS)]
        name = rng.choice(("insert", "read", "update", "read", "delete", "read"))
        args = {"key": key}
        if name in ("insert", "update"):
            args["value"] = f"{prefix}{index}-{op_index}".encode()
        yield name, args


def _kv_cluster(runtime, seed, shape, **control):
    """A KV cluster of ``runtime`` sized and pre-seeded as ``shape`` says."""
    common = dict(mpl=shape["mpl"], num_replicas=shape["num_replicas"],
                  barrier_timeout=BARRIER_TIMEOUT, seed=seed, **control)
    if runtime == "threaded":
        return ThreadedPSMRCluster(
            KVSTORE_SPEC,
            lambda: KeyValueStoreServer(initial_keys=shape["load_keys"]),
            **common,
        )
    if runtime == "proc":
        return ProcessPSMRCluster(
            service="kvstore", service_args={"initial_keys": shape["load_keys"]}, **common
        )
    raise ValueError(f"unknown runtime {runtime!r}")


def _kv_traffic(seed, shape, span, labels, load_names, pick_key):
    """KV clients on threads: unrecorded loaders plus recorded, paced probes.

    ``span`` is how long the schedule lasts (probes pace themselves across
    it); ``labels`` are the loader / probe ``derive_seed`` labels and the
    probe value prefix; ``load_names`` and ``pick_key(rng)`` shape the load.
    """
    load_label, probe_label, prefix = labels
    timeout = shape["invoke_timeout"]

    def traffic(live):
        def loader(index):
            client = live.cluster.client()
            rng = random.Random(derive_seed(seed, load_label, index))
            while not live.stop.is_set():
                key = pick_key(rng)
                name = rng.choice(load_names)
                args = {"key": key}
                if name in ("update", "insert"):
                    args["value"] = (
                        key.to_bytes(4, "big") + rng.randrange(1 << 16).to_bytes(4, "big")
                    )
                try:
                    client.invoke(name, timeout=timeout, **args)
                except TimeoutError:
                    live.report["load_errors"].append(
                        f"loader{index}: {name} key={key} timed out"
                    )

        def probe(index):
            client = live.cluster.client()
            rng = random.Random(derive_seed(seed, probe_label, index))
            pace = span / shape["probe_ops"]
            for name, args in _probe_commands(rng, index, prefix, shape["probe_ops"]):
                def call(name=name, args=args):
                    response = client.invoke(name, timeout=timeout, **args)
                    if name == "read":
                        return response.value if response.error is None else None
                    return None if response.error is None else response.error

                try:
                    live.recorder.timed_call(client.client_id, name, args, call)
                except TimeoutError:
                    pass  # recorded as pending (possibly applied)
                time.sleep(rng.uniform(0.2, 1.0) * pace)

        loaders = [(f"load{i}", partial(loader, i)) for i in range(BACKGROUND)]
        return loaders + [(f"probe{i}", partial(probe, i)) for i in range(PROBE_CLIENTS)]

    return traffic


# ----------------------------------------------------------------------
# The three live episodes: fault plan, shard migration, HTTP frontend
# ----------------------------------------------------------------------

def run_live_nemesis_episode(seed, runtime="threaded", store_dir=None, steps=None, mean_gap=None):
    """Run one seeded nemesis episode on a live cluster of ``runtime``.

    ``threaded`` runs replica threads in this process; on ``proc`` crashes
    are real ``SIGKILL``s, ``restart_disk`` re-execs a replica process from
    its durable store, and partitions/faults apply to actual TCP frames.
    ``store_dir`` enables the durable store; the threaded runtime without
    it plans no ``restart_disk`` (the process runtime always has a store,
    an owned temporary one by default).  ``runtime`` is a key of
    :data:`LIVE`; ``steps`` / ``mean_gap`` default to its row.
    """
    given = {"steps": steps, "mean_gap": mean_gap}
    shape = {**LIVE[runtime], **{k: v for k, v in given.items() if v is not None}}
    durable = runtime == "proc" or store_dir is not None
    kinds = tuple(k for k in THREADED_KINDS if durable or k != "restart_disk")
    plane, nemesis, report = _fault_plan(
        runtime, run_live_nemesis_episode,
        {"seed": seed, "runtime": runtime, "store_dir": store_dir,
         "steps": shape["steps"], "mean_gap": shape["mean_gap"]},
        shape, kinds, retransmit_backoff=0.005,
    )
    cluster = _kv_cluster(
        runtime, seed, shape,
        checkpoint_policy=CHECKPOINT_POLICY, store_dir=store_dir, fault_plane=plane,
    )
    return _run_live_episode(
        report, cluster, shape, plane=plane, disk_restart=durable,
        traffic=_kv_traffic(
            seed, shape, shape["steps"] * shape["mean_gap"], ("load", "probe", "p"),
            ("update", "update", "read", "insert", "delete"),
            lambda rng: rng.randrange(shape["load_keys"]),
        ),
        schedule=_plan_schedule(nemesis.plan),
    )


def run_shard_migration_episode(seed, runtime="threaded"):
    """One seeded episode of live shard migration under recorded load.

    The cluster starts from an even :class:`ShardMap` while skewed
    background load (most commands hit the low end of the keyspace, i.e.
    group 1's initial range) drives the router's load tracker off
    balance.  Mid-load, the episode calls :meth:`rebalance_shards`
    ``SHARD["migrations"]`` times — each switches routing to a new map
    at one totally-ordered barrier while probe clients keep recording
    operations.  The oracle is the skeleton's (linearizable history,
    converged replicas) plus the migration-specific checks: a migration
    happened and at least one moved ranges.

    ``runtime`` selects ``"threaded"`` or ``"proc"``; both expose the
    same sharding surface.
    """
    from repro.multicast.sharding import ShardMap

    shape, gap, rounds = SHARD, SHARD["migration_gap"], SHARD["migrations"]
    cluster = _kv_cluster(
        runtime, seed, shape,
        shard_map=ShardMap.initial(shape["mpl"], key_space=shape["key_space"]),
    )
    plan = [f"[{index}] rebalance" for index in range(rounds)]
    report = _new_report(
        f"shard-{runtime}", run_shard_migration_episode,
        {"seed": seed, "runtime": runtime}, plan,
    )
    report["migrations"] = []

    def skewed_key(rng):
        # Most commands land in the lowest eighth of the keyspace —
        # group 1's slice of the initial even map.
        if rng.random() < 0.8:
            return rng.randrange(max(1, shape["load_keys"] // 8))
        return rng.randrange(shape["load_keys"])

    def rebalance():
        record = cluster.rebalance_shards(min_imbalance=1.05)
        if record is not None:
            report["migrations"].append(
                dict(record, moved_ranges=[list(r) for r in record["moved_ranges"]])
            )

    def schedule(_live):
        for label in plan:
            time.sleep(gap)
            yield label, rebalance
        time.sleep(gap)  # the last map serves load before the drain

    _run_live_episode(
        report, cluster, shape, plane=None, schedule=schedule,
        traffic=_kv_traffic(
            seed, shape, (rounds + 1) * gap, ("shardload", "shardprobe", "sp"),
            ("update", "update", "update", "read"), skewed_key,
        ),
    )
    report["stale_routings_rejected"] = cluster.multicast.stale_routings_rejected
    report["final_map_version"] = cluster.shard_router.shard_map.version
    migrations = report["migrations"]
    return _fold(report, [
        (not migrations, "no migration happened (load never unbalanced the map)"),
        (not any(record["moved_ranges"] for record in migrations),
         "no migration moved any range"),
    ])


def run_frontend_nemesis_episode(seed):
    """One seeded nemesis episode probed through the HTTP frontend.

    Same fault plan shape and oracle as the threaded live episode (no
    durable store, so plain recovery), but every probe is an HTTP request
    through the full edge (routing, validation, limiter, asyncio bridge).
    The HTTP status codes carry the linearizability bookkeeping:

    * ``200``/``404``/``409`` map onto the KV model results;
    * ``429`` means the limiter rejected the request *before* submission
      — the attempt is retried and never enters the history;
    * ``503`` (backend timeout) is *possibly applied* — recorded as a
      pending operation, exactly like a lost ack;
    * anything else (500s, wrong data shapes) is a hard failure: faults
      must surface as latency or 503, never as wrong answers.
    """
    import asyncio

    from repro.frontend import ClusterBackend, InFlightLimiter, create_app
    from repro.frontend.models import encode_value
    from repro.frontend.testing import AsgiClient

    shape = FRONTEND
    plane, nemesis, report = _fault_plan(
        "frontend", run_frontend_nemesis_episode, {"seed": seed},
        shape, FRONTEND_KINDS, retransmit_backoff=0.005,
    )
    cluster = _kv_cluster("threaded", seed, shape, fault_plane=plane)
    # Every coroutine below runs on the one traffic thread: no lock.
    statuses = collections.Counter()
    report.update(probe_errors=[], bad_statuses=[], status_counts=statuses, retries_429=0)

    async def probe_client(http, recorder, index, pace):
        rng = random.Random(derive_seed(seed, "httpprobe", index))
        client_id = 1000 + index
        for name, args in _probe_commands(rng, index, "hp", shape["probe_ops"]):
            key = args["key"]
            while True:
                invoked_at = time.monotonic()
                try:
                    if name == "read":
                        resp = await http.get(f"/kv/{key}")
                    elif name == "delete":
                        resp = await http.delete(f"/kv/{key}")
                    else:
                        # insert/update are single replicated commands —
                        # the modes the linearizability model understands.
                        resp = await http.put(
                            f"/kv/{key}",
                            json={"value": args["value"].decode(), "mode": name},
                        )
                except Exception as exc:  # transport failure: possibly applied
                    recorder.record_pending(client_id, name, args, invoked_at)
                    report["probe_errors"].append(f"{name} key={key}: {exc!r}")
                    break
                statuses[resp.status_code] += 1
                if resp.status_code == 429:
                    # Rejected before submission: not part of the history.
                    report["retries_429"] += 1
                    await asyncio.sleep(float(resp.headers.get("retry-after", 0.01)))
                    continue
                if resp.status_code == 503:
                    recorder.record_pending(client_id, name, args, invoked_at)
                    break
                returned_at = time.monotonic()
                result = None
                if name == "read" and resp.status_code == 200:
                    payload = resp.json()
                    result = encode_value(payload["value"], payload["encoding"])
                elif name != "read" and resp.status_code == 404:
                    result = "err=1"
                elif name != "read" and resp.status_code == 409:
                    result = "err=2"
                elif resp.status_code != (404 if name == "read" else 200):
                    report["bad_statuses"].append(f"{name} key={key} -> {resp.status_code}")
                    break
                recorder.record(client_id, name, args, result, invoked_at, returned_at)
                break
            await asyncio.sleep(rng.uniform(0.2, 1.0) * pace)

    async def background_load(http, index, probes_done):
        """Unrecorded HTTP traffic over the bulk key space."""
        rng = random.Random(derive_seed(seed, "httpload", index))
        while not probes_done.is_set():
            key = rng.randrange(shape["load_keys"])
            try:
                if rng.random() < 0.5:
                    resp = await http.get(f"/kv/{key}")
                else:
                    resp = await http.put(
                        f"/kv/{key}",
                        json={"value": f"bg{index}-{key}", "mode": "upsert"},
                    )
                statuses[resp.status_code] += 1
            except Exception as exc:
                report["probe_errors"].append(f"background: {exc!r}")
            await asyncio.sleep(rng.uniform(0.001, 0.01))

    def traffic(live):
        """HTTP coroutines on one thread; background runs until probes finish."""
        app = create_app(
            kv_backend=ClusterBackend(cluster),
            limiter=InFlightLimiter(max_in_flight=shape["max_in_flight"]),
            request_timeout=shape["invoke_timeout"],
        )

        async def main():
            http = AsgiClient(app)
            pace = (shape["steps"] * shape["mean_gap"]) / shape["probe_ops"]
            probes_done = asyncio.Event()
            background = [
                asyncio.create_task(background_load(http, index, probes_done))
                for index in range(BACKGROUND)
            ]
            try:
                await asyncio.gather(*(
                    probe_client(http, live.recorder, index, pace)
                    for index in range(PROBE_CLIENTS)
                ))
            finally:
                probes_done.set()
                await asyncio.gather(*background, return_exceptions=True)

        return [("frontend-probes", lambda: asyncio.run(main()))]

    _run_live_episode(
        report, cluster, shape, plane=plane, traffic=traffic,
        schedule=_plan_schedule(nemesis.plan),
    )
    return _fold(report, [
        (report["bad_statuses"],
         "unexpected HTTP statuses (faults must surface as latency or "
         "503, never wrong answers): " + "; ".join(report["bad_statuses"])),
        (report["probe_errors"], f"{len(report['probe_errors'])} probe transport errors"),
    ])


# ----------------------------------------------------------------------
# Oracle assertion with seed-printing artifact
# ----------------------------------------------------------------------

def assert_episode_ok(report, artifact_dir=None):
    """Assert an episode passed; on failure, print the seed and save an artifact.

    The assertion message always contains the seed and the report's
    ``reproduce`` call.  ``artifact_dir`` (or the ``NEMESIS_ARTIFACT_DIR``
    environment variable) selects where the failing episode's JSON record
    (seed, plan, applied ops, history) is written.
    """
    if report["ok"]:
        return report
    directory = artifact_dir or os.environ.get("NEMESIS_ARTIFACT_DIR")
    artifact_path = None
    if directory:
        os.makedirs(directory, exist_ok=True)
        artifact_path = os.path.join(
            directory, f"nemesis-{report['runtime']}-seed{report['seed']}.json"
        )
        with open(artifact_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=repr)
    raise AssertionError(
        f"nemesis episode FAILED (runtime={report['runtime']}, seed={report['seed']}): "
        + "; ".join(report["failures"])
        + f"\nreproduce: {report['reproduce']}"
        + (f"\nartifact: {artifact_path}" if artifact_path else "")
    )
