"""Frontend experiment: HTTP edge latency/throughput under closed-loop load.

Runs the full service path — HTTP routing, pydantic validation, the
in-flight limiter, the asyncio→cluster bridge, the replicated KV store —
under a closed-loop concurrency sweep and reports the end-to-end numbers
(throughput, p50/p99/p999, 429 retry pressure).  This is the repro's
"heavy traffic" measurement: library-level figures (fig3..fig8) stop at
``invoke``; this one includes everything a real client would see.

``runtime`` picks the cluster flavour under the app: ``threaded`` or
``proc``.
"""

from repro.frontend import ClusterBackend, InFlightLimiter, create_app
from repro.frontend.testing import AsgiClient
from repro.harness.tables import format_table
from repro.loadgen import LoadConfig, run_load_sync
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer

#: Closed-loop client counts swept per run.
FRONTEND_CONCURRENCY = (8, 32, 128)

FRONTEND_KEY_SPACE = 512
FRONTEND_MPL = 4

#: What the experiment is expected to show (used in the output and tests).
EXPECTATIONS = {
    "saturation": "closed-loop throughput rises with concurrency until the "
                  "in-flight window saturates; beyond it added clients buy "
                  "queueing (429 retries) and tail latency, not throughput",
}


def _build_cluster(runtime, seed):
    if runtime == "proc":
        return ProcessPSMRCluster(
            service="kvstore",
            service_args={"initial_keys": FRONTEND_KEY_SPACE},
            mpl=FRONTEND_MPL,
            num_replicas=2,
            barrier_timeout=30.0,
            seed=seed,
        )
    return ThreadedPSMRCluster(
        spec=KVSTORE_SPEC,
        service_factory=lambda: KeyValueStoreServer(
            initial_keys=FRONTEND_KEY_SPACE
        ),
        mpl=FRONTEND_MPL,
        num_replicas=2,
        barrier_timeout=30.0,
        seed=seed,
    )


def run_frontend(warmup=0.01, duration=0.04, seed=1, runtime="threaded",
                 concurrency=FRONTEND_CONCURRENCY, max_in_flight=64):
    """Sweep closed-loop client counts over the HTTP edge; return rows.

    ``warmup``/``duration`` scale the per-client request counts so the
    CLI's tiny-window flags keep the experiment fast in tests.
    """
    requests_per_client = max(2, int(round(duration * 150)))
    warmup_requests = max(1, int(round(warmup * 150)))
    rows = []
    cluster = _build_cluster(runtime, seed)
    with cluster:
        limiter = InFlightLimiter(max_in_flight=max_in_flight)
        app = create_app(kv_backend=ClusterBackend(cluster), limiter=limiter)
        client = AsgiClient(app)
        run_load_sync(client, LoadConfig(
            clients=concurrency[0], requests_per_client=warmup_requests,
            key_space=FRONTEND_KEY_SPACE, seed=seed,
        ))
        for clients in concurrency:
            result = run_load_sync(client, LoadConfig(
                clients=clients,
                requests_per_client=requests_per_client,
                key_space=FRONTEND_KEY_SPACE,
                read_fraction=0.8,
                seed=seed + clients,
            ))
            record = result.to_record()
            rows.append({
                "clients": clients,
                "completed": record["completed"],
                "throughput_rps": round(record["throughput_rps"], 1),
                "p50_ms": round(record["latency"]["p50"] * 1e3, 3),
                "p99_ms": round(record["latency"]["p99"] * 1e3, 3),
                "p999_ms": round(record["latency"]["p999"] * 1e3, 3),
                "retries_429": record["retries_429"],
                "peak_concurrency": record["peak_concurrency"],
            })
    table = format_table(
        rows,
        columns=["clients", "completed", "throughput_rps", "p50_ms",
                 "p99_ms", "p999_ms", "retries_429", "peak_concurrency"],
        title=(
            f"HTTP frontend - closed-loop saturation sweep "
            f"({runtime} runtime, window {max_in_flight}, "
            f"repro: --seed {seed})"
        ),
    )
    return {
        "figure": "frontend",
        "runtime": runtime,
        "max_in_flight": max_in_flight,
        "rows": rows,
        "expectations": EXPECTATIONS,
        "text": table + "\nexpectation: " + EXPECTATIONS["saturation"],
    }
