"""Closed- and open-loop HTTP load generation against the frontend.

The rig simulates thousands of concurrent clients as asyncio tasks over
an in-process ASGI client (:class:`repro.frontend.testing.AsgiClient`)
or any object with the same ``get``/``put``/``delete`` surface — so the
measured path is the full HTTP stack (routing, validation, limiter,
bridge, cluster) without socket noise.

* **closed** arrival: each simulated client issues its next request only
  after the previous one completes — concurrency is exactly the client
  count, the paper's load model.  ``429`` responses honour
  ``Retry-After`` and retry (the retry wait counts toward the observed
  latency: that *is* the saturation signal).
* **open** arrival: requests start at seeded-Poisson times regardless of
  completions — ``429``/``503`` are terminal and counted.

Every schedule is a pure function of the config seed
(:func:`generate_client_ops`), so runs are reproducible and the unit
tests can assert the exact op stream.
"""

import asyncio
import math
import time
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.rng import SeededRNG, derive_seed
from repro.metrics.recorders import LatencyRecorder
from repro.workload.distributions import make_distribution


@dataclass
class LoadConfig:
    """One load-generation run, fully determined by its fields."""

    clients: int = 100
    requests_per_client: int = 10
    arrival: str = "closed"  # "closed" | "open"
    #: Open-loop aggregate arrival rate (requests/second); ignored when
    #: arrival is "closed".
    open_rate: float = 1000.0
    key_space: int = 1024
    distribution: str = "uniform"  # "uniform" | "zipfian"
    theta: float = 1.0
    read_fraction: float = 0.8
    value_size: int = 8
    seed: int = 0
    #: Per-request cap on 429 retries in closed mode; beyond it the op
    #: counts as ``dropped`` (keeps a saturated run finite).
    max_retries: int = 1000
    #: Ceiling on any single ``Retry-After`` wait, in seconds.  The header
    #: comes from the server under test — a buggy or hostile value must
    #: not stall the rig (or a benchmark run) indefinitely.
    max_backoff: float = 5.0

    def validate(self):
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be >= 1")
        if self.arrival not in ("closed", "open"):
            raise ConfigurationError(f"unknown arrival mode {self.arrival!r}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.arrival == "open" and self.open_rate <= 0:
            raise ConfigurationError("open_rate must be > 0")
        if self.max_backoff <= 0:
            raise ConfigurationError("max_backoff must be > 0")
        return self


#: Wait used when a 429 carries no (or an unparseable) ``Retry-After``.
DEFAULT_RETRY_AFTER = 0.01


def parse_retry_after(raw, max_backoff):
    """A defensive ``Retry-After`` parse: always a float in ``[0, max_backoff]``.

    The header value crosses a trust boundary (it is produced by whatever
    server the rig points at), so anything unparseable or non-finite falls
    back to :data:`DEFAULT_RETRY_AFTER`, negatives clamp to zero and large
    values clamp to ``max_backoff``.
    """
    try:
        wait = float(raw)
    except (TypeError, ValueError):
        wait = DEFAULT_RETRY_AFTER
    if not math.isfinite(wait):
        wait = DEFAULT_RETRY_AFTER
    return min(max(wait, 0.0), max_backoff)


def generate_client_ops(config, client_index):
    """The deterministic op stream of one simulated client.

    Returns ``[(method, path, json_body_or_None), ...]`` — derived only
    from ``(config.seed, client_index)``, never from wall-clock or
    global state.
    """
    rng = SeededRNG(derive_seed(config.seed, "loadgen", client_index))
    keys = make_distribution(
        config.distribution, config.key_space, theta=config.theta,
        rng=rng.child("keys"),
    )
    coin = rng.child("ops")
    ops = []
    for _ in range(config.requests_per_client):
        key = keys.next_key()
        if coin.random() < config.read_fraction:
            ops.append(("GET", f"/kv/{key}", None))
        else:
            value = f"c{client_index}-k{key}".ljust(config.value_size, ".")
            ops.append(
                ("PUT", f"/kv/{key}", {"value": value, "mode": "upsert"})
            )
    return ops


def open_arrival_times(config):
    """Seeded-Poisson start offsets (seconds) for every op of an open run."""
    rng = SeededRNG(derive_seed(config.seed, "loadgen", "arrivals"))
    total = config.clients * config.requests_per_client
    now = 0.0
    times = []
    for _ in range(total):
        now += rng.expovariate(config.open_rate)
        times.append(now)
    return times


@dataclass
class LoadResult:
    """Aggregated outcome of one run."""

    config: LoadConfig
    duration: float
    latency: LatencyRecorder
    status_counts: dict = field(default_factory=dict)
    retries: int = 0
    dropped: int = 0
    timeouts: int = 0
    peak_concurrency: int = 0

    @property
    def completed(self):
        return len(self.latency)

    def throughput(self):
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    def to_record(self):
        return {
            "clients": self.config.clients,
            "arrival": self.config.arrival,
            "requests_per_client": self.config.requests_per_client,
            "distribution": self.config.distribution,
            "read_fraction": self.config.read_fraction,
            "seed": self.config.seed,
            "completed": self.completed,
            "duration_s": self.duration,
            "throughput_rps": self.throughput(),
            "latency": self.latency.summary(),
            "status_counts": dict(sorted(self.status_counts.items())),
            "retries_429": self.retries,
            "dropped": self.dropped,
            "timeouts_503": self.timeouts,
            "peak_concurrency": self.peak_concurrency,
        }


class _Gauge:
    """Tracks concurrent in-section tasks; tests assert the closed-loop bound."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def __enter__(self):
        self.current += 1
        if self.current > self.peak:
            self.peak = self.current
        return self

    def __exit__(self, exc_type, exc, tb):
        self.current -= 1
        return False


async def _run_one(client, method, path, body, result, gauge, config):
    """Issue one op (with closed-loop 429 retry); record its latency."""
    retries = 0
    start = time.perf_counter()
    with gauge:
        while True:
            response = await client.request(method, path, json=body)
            status = response.status_code
            result.status_counts[status] = result.status_counts.get(status, 0) + 1
            if status == 429:
                if config.arrival != "closed" or retries >= config.max_retries:
                    # Open-loop clients never wait for a slot; a capped
                    # closed-loop op gives up.  Either way the op is lost,
                    # not completed.
                    result.dropped += 1
                    return
                retries += 1
                result.retries += 1
                retry_after = parse_retry_after(
                    response.headers.get("retry-after"), config.max_backoff
                )
                await asyncio.sleep(retry_after)
                continue
            break
    if status == 503:
        result.timeouts += 1
        return
    result.latency.record(time.perf_counter() - start)


async def run_load(client, config):
    """Drive ``client`` per ``config``; return a :class:`LoadResult`."""
    config.validate()
    result = LoadResult(
        config=config, duration=0.0, latency=LatencyRecorder()
    )
    gauge = _Gauge()
    started = time.perf_counter()
    if config.arrival == "closed":
        async def one_client(index):
            for method, path, body in generate_client_ops(config, index):
                await _run_one(client, method, path, body, result, gauge, config)

        await asyncio.gather(
            *(one_client(index) for index in range(config.clients))
        )
    else:
        schedule = open_arrival_times(config)
        ops = [
            op
            for index in range(config.clients)
            for op in generate_client_ops(config, index)
        ]

        async def one_shot(offset, op):
            delay = offset - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            method, path, body = op
            await _run_one(client, method, path, body, result, gauge, config)

        await asyncio.gather(
            *(one_shot(offset, op) for offset, op in zip(schedule, ops))
        )
    result.duration = time.perf_counter() - started
    result.peak_concurrency = gauge.peak
    return result


def run_load_sync(client, config):
    """Convenience wrapper for synchronous callers (benchmarks, CLI)."""
    return asyncio.run(run_load(client, config))
