"""Spans around the calls into each layer, recorded from the benchmark's side.

A span is ``(id, name, start, end, parent, request)``; spans of one
request share the request id, which is the id of the request's root span
(the load generator's).  A wrapper records a span only inside a traced
request — the root decides, and tells the layers below through a context
variable (same thread, or the asyncio task serving the request) — so an
untraced request costs one context lookup per wrapper.  Spans stay in
memory until the run ends.  A layer's self time is its span minus the
part of that interval its child spans cover.
"""

import contextlib
import contextvars
import itertools
import statistics
from time import perf_counter

from repro.frontend.backend import ClusterBackend

#: ``(span id, request id)`` of the enclosing traced span, if any.
CURRENT = contextvars.ContextVar("bench_span", default=None)

#: Request header carrying the root span id from the generator to the app.
TRACE_HEADER = "x-bench-span"
#: On the direct workloads every 16th request and every 16th ``apply`` is
#: traced: all of them would be ~750,000 spans in ten seconds.
DIRECT_TRACE_EVERY = 16

ROOT = "loadgen.request"
APP = "frontend.app"
SUBMIT = "frontend.backend.submit"
CLIENT = "runtime.cluster.client"
ROUTE = "core.cg.route"
MULTICAST = "runtime.multicast"
SEND = "runtime.transport.send"
TURNAROUND = "runtime.replica.turnaround"
EXECUTE = "services.kvstore.execute"

#: Per-layer metric <- span name whose median self time it reports.
STAGES = {
    "frontend.server.self_us": ROOT,
    "frontend.app.self_us": APP,
    "frontend.backend.bridge_us": SUBMIT,
    "runtime.cluster.client_self_us": CLIENT,
    "core.cg.route_us": ROUTE,
    "runtime.multicast.self_us": MULTICAST,
    "runtime.transport.send_us": SEND,
    "runtime.replica.turnaround_us": TURNAROUND,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        #: Whether :func:`timed_service` instances record (the traced window only).
        self.timing_services = False

    def new_id(self):
        return next(self._ids)

    def add(self, span_id, name, start, end, parent, request):
        self.spans.append((span_id, name, start, end, parent, request))

    @contextlib.contextmanager
    def span(self, name, parent):
        """Record the enclosed code as a child of ``parent`` (span id, request id)."""
        span_id = self.new_id()
        token = CURRENT.set((span_id, parent[1]))
        start = perf_counter()
        try:
            yield
        finally:
            self.add(span_id, name, start, perf_counter(), *parent)
            CURRENT.reset(token)

    def wrap(self, name, call):
        """``call`` recording a span named ``name`` inside traced requests."""

        def traced(*args, **kwargs):
            parent = CURRENT.get()
            if parent is None:
                return call(*args, **kwargs)
            with self.span(name, parent):
                return call(*args, **kwargs)

        return traced

    def install(self, cluster):
        """Wrap the cluster's routing, sequencing and transport entry points."""
        cluster.cg.route = self.wrap(ROUTE, cluster.cg.route)
        cluster.multicast.multicast = self.wrap(MULTICAST, cluster.multicast.multicast)
        transport = cluster.multicast.transport
        transport.send = self.wrap(SEND, transport.send)

    @staticmethod
    def uninstall(cluster):
        """Drop the instance attributes again; the class's methods show through."""
        del cluster.cg.route, cluster.multicast.multicast
        del cluster.multicast.transport.send


class TracedClient:
    """Client proxy: spans ``invoke_async`` and the wait for its response."""

    def __init__(self, client, tracer):
        self._client = client
        self._invoke_async = tracer.wrap(CLIENT, client.invoke_async)
        self._tracer = tracer

    def invoke_async(self, name, **args):
        parent = CURRENT.get()
        pending = self._invoke_async(name, **args)
        if parent is None:
            return pending
        return _TracedPending(pending, self._tracer, perf_counter(), parent)


class _TracedPending:
    """A pending invocation whose response time ends a turnaround span."""

    def __init__(self, pending, tracer, start, parent):
        self._pending = pending
        self._tracer = tracer
        self._start = start
        self._parent = parent
        self.uid = pending.uid

    def _landed(self):
        tracer = self._tracer
        tracer.add(tracer.new_id(), TURNAROUND, self._start, perf_counter(), *self._parent)

    def result(self, timeout=10.0):
        response = self._pending.result(timeout)
        self._landed()
        return response

    def add_done_callback(self, callback):
        def stamped(response):
            self._landed()
            callback(response)

        return self._pending.add_done_callback(stamped)

    def discard(self):
        self._pending.discard()


class _TracedCluster:
    """What :class:`ClusterBackend` needs of a cluster, handing out traced clients."""

    def __init__(self, cluster, tracer):
        self._cluster = cluster
        self._tracer = tracer

    def client(self):
        return TracedClient(self._cluster.client(), self._tracer)

    def __getattr__(self, name):
        return getattr(self._cluster, name)


class TracedBackend(ClusterBackend):
    """The frontend's cluster bridge with a span around every ``submit``."""

    def __init__(self, cluster, tracer):
        super().__init__(_TracedCluster(cluster, tracer))
        self._tracer = tracer

    async def submit(self, name, timeout=None, **args):
        parent = CURRENT.get()
        if parent is None:
            return await super().submit(name, timeout, **args)
        with self._tracer.span(SUBMIT, parent):
            return await super().submit(name, timeout, **args)


def traced_app(app, tracer):
    """ASGI middleware: a span around the app for requests carrying the header."""
    header = TRACE_HEADER.encode()

    async def middleware(scope, receive, send):
        root = None
        if scope["type"] == "http":
            root = next((value for name, value in scope["headers"] if name == header), None)
        if root is None:
            return await app(scope, receive, send)
        root = int(root)
        with tracer.span(APP, (root, root)):
            return await app(scope, receive, send)

    return middleware


def timed_service(service_class, tracer):
    """``service_class`` recording a span around every 16th ``apply``.

    Both replicas execute every command and only the first response
    reaches the client, so these spans have no parent: they are a cost
    per command, not a stage of one request's latency.
    """

    class Timed(service_class):
        def apply(self, command):
            if self.commands_executed % DIRECT_TRACE_EVERY or not tracer.timing_services:
                return super().apply(command)
            start = perf_counter()
            try:
                return super().apply(command)
            finally:
                tracer.add(tracer.new_id(), EXECUTE, start, perf_counter(), None, None)

    return Timed


def self_times(spans):
    """``{name: [self seconds of each span]}``.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span), so overlapping children — a batch's
    32 concurrent submits — are not subtracted twice.
    """
    children = {}
    for _span_id, _name, start, end, parent, _request in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, name, start, end, _parent, _request in spans:
        covered = 0.0
        reach = start
        for low, high in sorted(children.get(span_id, ())):
            low, high = max(low, reach), min(high, end)
            if high > low:
                covered += high - low
                reach = high
        result.setdefault(name, []).append(end - start - covered)
    return result


def stage_metrics(spans):
    """Median self time in microseconds of every stage that recorded spans, and the coverage.

    Coverage is the sum of the stage medians over the median root span:
    how much of the traced request latency the stage table accounts for.
    """
    selfs = self_times(spans)
    if ROOT not in selfs:
        raise RuntimeError("the traced window recorded no request")
    if APP not in selfs:
        # Without an app span under it, a request's own time is the
        # generator's loop, not a server's.
        del selfs[ROOT]
    metrics = {
        metric: 1e6 * statistics.median(selfs[name])
        for metric, name in STAGES.items()
        if name in selfs
    }
    roots = [end - start for _id, name, start, end, _p, _r in spans if name == ROOT]
    metrics["trace.coverage"] = sum(metrics.values()) / (1e6 * statistics.median(roots))
    if EXECUTE in selfs:
        metrics["services.kvstore.execute_us"] = 1e6 * statistics.median(selfs[EXECUTE])
    return metrics
