"""Run one workload: build the stack, drive it, verify, print every metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

(``PYTHONPATH=src python -m bench.run`` is the same program; without
``--workload`` it runs all four.)  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is non-zero when a response or
the replicas' final state was wrong.
"""

import argparse
import asyncio
import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Started from a bare checkout, where neither package is on the path.
    sys.path[:1] = [ROOT_DIR, os.path.join(ROOT_DIR, "src")]
    if not os.path.isdir(os.path.join(ROOT_DIR, "src", "repro")):
        sys.exit("bench: src/repro, the system under test, is missing")

from bench import slices as slicing
from bench.keepawake import REFERENCE_CHUNK_S, vcpus_awake
from bench.loadgen import DirectGenerator, HttpGenerator, harness_cpu_s, rss_mb, run_window
from bench.tracing import (
    TracedBackend, TracedClient, Tracer, stage_metrics, timed_service, traced_app,
)
from bench.verify import VerificationError, check_convergence
from bench.workloads import (
    GENERATORS, INITIAL_KEYS, LOG_RETENTION, WORKLOADS, generate, new_model,
)
from repro.common.framing import HEADER_SIZE
from repro.core.cg import CGFunction
from repro.core.command import Command
from repro.frontend.app import create_app
from repro.frontend.backend import ClusterBackend
from repro.frontend.server import run_app_in_thread
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.runtime.multicast import encode_wire
from repro.runtime.transport import wire
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

OUT_DIR = os.path.join(ROOT_DIR, "bench", "out")
#: Commands replayed to time the wire codec and the service in isolation.
ISOLATED_SAMPLE = 4096


class Protocol(NamedTuple):
    """The measurement protocol: constants of the benchmark, never adapted at run time."""

    slices: int = 20
    slice_s: float = 1.0
    warmup_s: float = 3.0
    #: Set-ups timed per run (one-shot set-up time is mostly fork/exec jitter).
    setups: int = 5


class Stack(NamedTuple):
    cluster: object
    app: object  #: the frontend app, or None on the direct workloads
    address: tuple  #: (host, port) of the HTTP server, or None

    @property
    def pids(self):
        """The system under test: this process and its replica children."""
        children = (getattr(replica, "pid", None) for replica in self.cluster.replicas)
        return [os.getpid(), *(pid for pid in children if pid is not None)]


@contextlib.contextmanager
def open_stack(workload, tracer=None, mpl=4):
    """The system under test, serving; the HTTP server stops before the cluster."""
    if workload.stack == "direct":
        service = KeyValueStoreServer
        if tracer is not None:
            service = timed_service(service, tracer)
        cluster = ThreadedPSMRCluster(
            KVSTORE_SPEC, lambda: service(initial_keys=INITIAL_KEYS),
            mpl=mpl, log_retention=LOG_RETENTION,
        )
        with cluster:
            yield Stack(cluster, None, None)
        return
    # The replicas' checkpoint stores stay inside the checkout (the default is /tmp).
    os.makedirs(OUT_DIR, exist_ok=True)
    with (
        tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="store-") as store_dir,
        ProcessPSMRCluster(
            service="kvstore", service_args={"initial_keys": INITIAL_KEYS},
            log_retention=LOG_RETENTION, store_dir=store_dir,
        ) as cluster,
    ):
        if tracer is None:
            served = app = create_app(kv_backend=ClusterBackend(cluster))
        else:
            app = create_app(kv_backend=TracedBackend(cluster, tracer))
            served = traced_app(app, tracer)
        base_url, stop = run_app_in_thread(served)
        try:
            host, _, port = base_url.rpartition("//")[2].partition(":")
            yield Stack(cluster, app, (host, int(port)))
        finally:
            stop()


def prepare(workload, seed):
    """Every generator's request cycle, in the form its generator replays."""
    encode = HttpGenerator.encode if workload.stack == "http" else (lambda ops: None)
    return [
        [(ops, encode(ops)) for ops in generate(workload, seed, index)]
        for index in range(GENERATORS)
    ]


def set_up(exits, awake, workload, cycles, tracer=None, mpl=4):
    """Bring a stack up to its first verified responses; time it.

    Everything is registered on the ``ExitStack`` ``exits``, which closes
    the connections, then the HTTP server, then the cluster.  The timing
    is ``(seconds, the spinners' (chunks, CPU seconds) over them)``, for
    :func:`bench.slices.setup_seconds`.
    """
    # Start from a collected heap: whether a full collection (0.07-0.11 s of a
    # direct stack's 0.3 s) falls into a set-up depends on what ran before it.
    gc.collect()
    chunks, spin_s = awake.read()
    start = perf_counter()
    stack = exits.enter_context(open_stack(workload, tracer, mpl))
    generators = []
    for index, cycle in enumerate(cycles):
        if stack.app is None:
            generator = DirectGenerator(cycle, new_model(index), stack.cluster.client())
        else:
            generator = HttpGenerator(cycle, new_model(index), *stack.address)
        exits.callback(generator.close)
        generator.probe()
        generators.append(generator)
    seconds = perf_counter() - start
    done, used = awake.read()
    return stack, generators, (seconds, (done - chunks, used - spin_s))


def verify_state(stack, generators):
    """``(attempted, failed, converged)`` once the generators have stopped.

    Converged: every replica holds the same state, it is the state the
    generators' models predict, and no checkpoint marker cut a batch.
    """
    converged = True
    try:
        check_convergence(
            stack.cluster.replica_snapshots(),
            [generator.model for generator in generators],
            stack.cluster.marker_boundary_violations,
        )
    except VerificationError as wrong:
        print(f"bench: {wrong}", file=sys.stderr)
        converged = False
    attempted = sum(generator.ops for generator in generators)
    return attempted, sum(generator.failed for generator in generators), converged


def harness_of(workload, cycles):
    """The generators' own CPU per request, where it has to be timed apart."""
    if workload.stack == "direct":
        return harness_cpu_s(cycles[0], new_model(0))
    return None  # an HTTP generator's thread runs nothing but the generator


def measure(workload, seed, protocol):
    """The end-to-end run: no wrapper installed anywhere."""
    cycles = prepare(workload, seed)
    with vcpus_awake(OUT_DIR) as awake:
        with contextlib.ExitStack() as exits:
            stack, generators, timing = set_up(exits, awake, workload, cycles)
            setups = [timing]
            recorded = run_window(
                generators, stack.pids, awake,
                protocol.warmup_s, protocol.slices, protocol.slice_s,
            )
            resident = rss_mb(stack.pids)
            verdict = verify_state(stack, generators)
        # The other set-ups come after the measurement so that nothing they
        # leave behind (heap growth, sockets in TIME_WAIT) is measured.
        for _ in range(protocol.setups - 1):
            with contextlib.ExitStack() as exits:
                setups.append(set_up(exits, awake, workload, cycles)[2])
    metrics = slicing.summarise(
        recorded, [gen.latency for gen in generators], harness_of(workload, cycles)
    )
    metrics["setup_s"] = slicing.setup_seconds(setups)
    metrics["rss_mb"] = resident
    return verdict, metrics


def measure_traced(workload, seed, protocol):
    """The traced run: a reference window, then the same stack with spans on."""
    cycles = prepare(workload, seed)
    tracer = Tracer()
    reference_slices = max(1, protocol.slices // 4)
    harness = harness_of(workload, cycles)
    with vcpus_awake(OUT_DIR) as awake, contextlib.ExitStack() as exits:
        stack, generators, _ = set_up(exits, awake, workload, cycles, tracer)
        cluster = stack.cluster

        def window(stack, generators, warmup_s, slices):
            recorded = run_window(
                generators, stack.pids, awake, warmup_s, slices, protocol.slice_s
            )
            return slicing.summarise(recorded, [gen.latency for gen in generators], harness)

        reference = window(stack, generators, protocol.warmup_s, reference_slices)
        tracer.install(cluster)
        tracer.timing_services = True
        for generator in generators:
            generator.tracer = tracer
            if stack.app is None:
                generator.client = TracedClient(generator.client, tracer)
        try:
            traced = window(
                stack, generators, min(1.0, protocol.warmup_s), max(1, protocol.slices // 2)
            )
        finally:
            tracer.timing_services = False
            tracer.uninstall(cluster)
        # Names without a layer prefix are the end-to-end ones; here they
        # describe the traced window, so they are printed as ``traced.*``.
        metrics = {
            name if "." in name else f"traced.{name}": value for name, value in traced.items()
        }
        verdict = verify_state(stack, generators)
        issued = verdict[0] + GENERATORS  # every generator's probe is a command too
        metrics["runtime.multicast.msgs_per_op"] = cluster.multicast.messages_multicast / issued
        metrics["runtime.multicast.wire_bytes_per_op"] = cluster.multicast.wire_bytes / issued
        metrics["runtime.replica.avg_batch"] = cluster.delivery_batch_stats()["avg_batch"]
        if stack.app is not None:
            limiter = stack.app.limiter.stats()
            metrics["frontend.limits.rejected_frac"] = limiter["rejected"] / max(
                1, limiter["rejected"] + limiter["admitted"]
            )
            metrics["frontend.backend.timed_out"] = stack.app.kv_backend.timed_out
        exits.close()  # this stack; the ExitStack takes the next one
        if workload.name == "direct-indep":
            stack, generators, _ = set_up(exits, awake, workload, cycles, mpl=1)
            single = window(stack, generators, min(1.0, protocol.warmup_s), reference_slices)
            also = verify_state(stack, generators)
            verdict = (verdict[0] + also[0], verdict[1] + also[1], verdict[2] and also[2])
            metrics["runtime.cluster.scaling_4v1"] = reference["ops_per_s"] / single["ops_per_s"]
    # The end-to-end names are the untraced reference window's.
    metrics.update((name, value) for name, value in reference.items() if "." not in name)
    metrics["trace.overhead_frac"] = 1 - traced["ops_per_s"] / reference["ops_per_s"]
    metrics.update(stage_metrics(tracer.spans))
    sample = [op for ops in generate(workload, seed, 0) for op in ops][:ISOLATED_SAMPLE]
    if workload.stack == "http":
        metrics.update(wire_costs(sample))
        metrics["services.kvstore.execute_us"] = execute_cost(sample)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w") as out:
        json.dump(
            {
                "fingerprint": fingerprint(seed, protocol),
                "span_fields": ["id", "name", "start", "end", "parent", "request"],
                "spans": tracer.spans,
            },
            out,
        )
    return verdict, metrics


def _arguments(op):
    name, key, value = op
    return name, ({"key": key} if value is None else {"key": key, "value": value})


def wire_costs(sample):
    """``wire.encode_message``/``decode_payload`` on the workload's own ``d`` frames."""
    route = CGFunction(KVSTORE_SPEC, 4).route
    messages = []
    for sequence, op in enumerate(sample):
        name, args = _arguments(op)
        destinations = route(name, args)[0]
        command = Command((0, sequence), name, args, destinations=destinations)
        messages.append({
            "t": "d", "ls": sequence, "s": sequence,
            "dst": wire.encode_destinations(destinations),
            "b": encode_wire(command, "binary"),
        })
    start = perf_counter()
    frames = [wire.encode_message(message) for message in messages]
    encoded = perf_counter()
    payloads = [frame[HEADER_SIZE:] for frame in frames]
    decoding = perf_counter()
    for payload in payloads:
        wire.decode_payload(payload)
    decoded = perf_counter()
    return {
        "runtime.transport.wire.encode_us": 1e6 * (encoded - start) / len(frames),
        "runtime.transport.wire.decode_us": 1e6 * (decoded - decoding) / len(frames),
        "runtime.transport.wire.frame_bytes": sum(map(len, frames)) / len(frames),
    }


def execute_cost(sample):
    """``KeyValueStoreServer.execute`` per command on a preloaded local store."""
    execute = KeyValueStoreServer(initial_keys=INITIAL_KEYS).execute
    calls = [_arguments(op) for op in sample]
    start = perf_counter()
    for name, args in calls:
        execute(name, args)
    return 1e6 * (perf_counter() - start) / len(calls)


def fingerprint(seed, protocol):
    """What the numbers depend on besides the code."""
    try:
        # Only this checkout's commit: git does not look above ROOT_DIR.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT_DIR)},
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "event_loop": type(asyncio.get_event_loop_policy()).__name__,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": commit or "unknown",
        "seed": seed,
        **protocol._asdict(),
        "reference_chunk_s": REFERENCE_CHUNK_S,
        "quiet_steal": slicing.QUIET_STEAL,
        "min_quiet": slicing.MIN_QUIET,
    }


def declared_metrics():
    """``(end_to_end, per_layer)`` of ``BENCHMARK.json``, each ``{name: unit}``."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    )


#: Layers the direct workloads do not pass through.
_HTTP_ONLY = (
    "frontend.server.self_us", "frontend.app.self_us", "frontend.backend.bridge_us",
    "frontend.limits.rejected_frac", "frontend.backend.timed_out",
    "runtime.transport.wire.encode_us", "runtime.transport.wire.decode_us",
    "runtime.transport.wire.frame_bytes",
)


def layer_report(workload, per_layer, measured):
    """The value of every declared per-layer metric for the result line.

    The result line must carry every declared metric as a number, so a
    layer that is not on this workload's path reads 0.  A layer that is on
    the path and was not measured is an error: most of these metrics are
    better when lower, and a wrapper that silently stopped recording must
    not read as the best possible value.
    """
    off_path = set(_HTTP_ONLY) if workload.stack == "direct" else set()
    if workload.name != "direct-indep":
        off_path.add("runtime.cluster.scaling_4v1")
    missing = sorted(set(per_layer) - set(measured) - off_path)
    if missing:
        raise RuntimeError(f"{workload.name}: layers on the path were not measured: {missing}")
    return {metric: 0.0 if metric in off_path else measured[metric] for metric in per_layer}


def run_workload(name, seed, protocol, trace):
    """Run one workload and print its report; return whether it was correct."""
    workload = WORKLOADS[name]
    print(json.dumps({"workload": name, "trace": int(trace), **fingerprint(seed, protocol)}))
    (attempted, failed, converged), measured = (measure_traced if trace else measure)(
        workload, seed, protocol
    )
    measured["failed_frac"] = failed / attempted
    end_to_end, per_layer = declared_metrics()
    if trace:
        reported = layer_report(workload, per_layer, measured)
    else:
        reported = {metric: measured[metric] for metric in end_to_end}
    units = {**end_to_end, **per_layer}
    for metric, value in sorted(measured.items()):
        mark = "*" if metric in reported else " "
        print(f"{mark} {metric:40s} {value:14.4f} {units.get(metric, '')}")
    correct = converged and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in reported.items()
        },
    }))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=Protocol().slices,
                        help="measured seconds, one slice each")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fix string hashing for this process and the replica children.
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *(sys.argv[1:] if argv is None else argv)],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    protocol = Protocol(slices=args.seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(name, args.seed, protocol, args.trace) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
