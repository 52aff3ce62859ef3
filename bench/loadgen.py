"""Closed-loop load generators and the slice sampler.

Two generators, each on its own thread of the runner process, each
waiting for its reply before sending the next request (``nproc`` is 2).
A generator counts completions and stores one latency sample per request
in a preallocated buffer, so the harness's memory does not grow during a
run; the sampler on the main thread reads those counters, the CPU clocks
and ``/proc/stat`` at every slice boundary.
"""

import http.client
import json
import os
import threading
import time
from array import array
from collections import deque
from time import perf_counter
from typing import NamedTuple

from bench.slices import Slice, read_cpu_counters, steal_share
from bench.tracing import CURRENT, DIRECT_TRACE_EVERY, ROOT, TRACE_HEADER
from bench.verify import ERR_EXISTS, ERR_NOT_FOUND, OK
from repro.core.command import Response

#: Latency samples a generator can hold (the fastest workload records
#: about 300,000 in a run); past it, operations are still counted.
SAMPLE_CAPACITY = 1 << 19
REQUEST_TIMEOUT_S = 10.0
#: Commands in flight per generator on the direct workloads.
WINDOW = 32

_JSON_HEADERS = {"content-type": "application/json"}
_STATUS_ERR = {200: OK, 404: ERR_NOT_FOUND, 409: ERR_EXISTS}
_BATCH_ERR = {None: OK, "not_found": ERR_NOT_FOUND, "exists": ERR_EXISTS}
_RESPONSE_ERR = {None: OK, "err=1": ERR_NOT_FOUND, "err=2": ERR_EXISTS}
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


class Generator:
    """One closed-loop caller: its request cycle, model, counters and samples."""

    def __init__(self, requests, model):
        self.requests = requests
        self.model = model
        self.cursor = 0
        self.latency = array("d", bytes(8 * SAMPLE_CAPACITY))
        self.samples = 0
        self.completed = 0  #: requests
        self.ops = 0
        self.failed = 0  #: operations
        self.tracer = None
        self.stop = False
        self.error = None

    def run(self):
        """Thread target: issue requests until told to stop."""
        try:
            self.loop()
        except Exception as exc:  # reported by run_window on the main thread
            self.error = exc

    def close(self):
        """Release what the generator holds open."""

    def _next(self):
        """The next request of the cycle: ``(ops, encoded form, predicted results)``."""
        ops, encoded = self.requests[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.requests)
        return ops, encoded, [self.model.apply(*op) for op in ops]

    def _record(self, seconds, ops, failed):
        if self.samples < SAMPLE_CAPACITY:
            self.latency[self.samples] = seconds
            self.samples += 1
        self.completed += 1
        self.ops += ops
        self.failed += failed


class HttpGenerator(Generator):
    """One keep-alive ``http.client`` connection, one request in flight."""

    def __init__(self, requests, model, host, port):
        super().__init__(requests, model)
        self.connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    @staticmethod
    def encode(ops):
        """``(method, path, body)`` of one request: built before timing, not per request."""
        if len(ops) > 1:
            body = {
                "ops": [
                    {"op": name, "key": key}
                    if value is None
                    else {"op": name, "key": key, "value": value.decode()}
                    for name, key, value in ops
                ]
            }
            return "POST", "/kv/batch", json.dumps(body).encode()
        ((name, key, value),) = ops
        if name == "read":
            return "GET", f"/kv/{key}", None
        if name == "delete":
            return "DELETE", f"/kv/{key}", None
        body = {"value": value.decode(), "mode": name}
        return "PUT", f"/kv/{key}", json.dumps(body).encode()

    def close(self):
        self.connection.close()

    def probe(self):
        """One verified read: the first response of a freshly set-up stack."""
        key = self.model.index
        expected = [self.model.apply("read", key)]
        self.connection.request("GET", f"/kv/{key}")
        response = self.connection.getresponse()
        if self._check(response.status, response.read(), (("read", key, None),), expected):
            raise RuntimeError("first response of the stack is wrong")

    def loop(self):
        connection = self.connection
        while not self.stop:
            ops, (method, path, body), expected = self._next()
            headers = _JSON_HEADERS
            root = None
            if self.tracer is not None:
                root = self.tracer.new_id()
                headers = {**_JSON_HEADERS, TRACE_HEADER: str(root)}
            start = perf_counter()
            try:
                connection.request(method, path, body, headers)
                response = connection.getresponse()
                payload = response.read()
                end = perf_counter()
                failed = self._check(response.status, payload, ops, expected)
            except (OSError, http.client.HTTPException):
                end = perf_counter()
                failed = len(ops)
                connection.close()  # reopened by the next request
            self._record(end - start, len(ops), failed)
            if root is not None:
                self.tracer.add(root, ROOT, start, end, None, root)

    def _check(self, status, payload, ops, expected):
        """Number of operations of one response that are not as predicted."""
        check = self.model.check
        if len(ops) > 1:
            if status != 200:
                return len(ops)
            results = json.loads(payload)["results"]
            if len(results) != len(ops):
                return len(ops)
            return sum(
                not check(
                    want,
                    _BATCH_ERR.get(got["error"], got["error"]),
                    got["value"].encode() if got["value"] is not None else None,
                )
                for want, got in zip(expected, results)
            )
        value = None
        if status == 200 and ops[0][0] == "read":
            value = json.loads(payload)["value"].encode()
        return int(not check(expected[0], _STATUS_ERR.get(status, status), value))


class DirectGenerator(Generator):
    """``client.invoke_async`` with a window of :data:`WINDOW` commands."""

    def __init__(self, requests, model, client):
        super().__init__(requests, model)
        self.client = client

    def probe(self):
        key = self.model.index
        expected = self.model.apply("read", key)
        response = self.client.invoke_async("read", key=key).result(REQUEST_TIMEOUT_S)
        err = _RESPONSE_ERR.get(response.error, response.error)
        if not self.model.check(expected, err, response.value):
            raise RuntimeError("first response of the stack is wrong")

    def loop(self, limit=None):
        inflight = deque()
        issued = 0
        while not self.stop and issued != limit:
            ((name, key, value),), _, (expected,) = self._next()
            args = {"key": key} if value is None else {"key": key, "value": value}
            root = None
            if self.tracer is not None and issued % DIRECT_TRACE_EVERY == 0:
                root = self.tracer.new_id()
                token = CURRENT.set((root, root))
            issued += 1
            start = perf_counter()
            try:
                pending = self.client.invoke_async(name, **args)
            finally:
                if root is not None:
                    CURRENT.reset(token)
            inflight.append((start, pending, expected, root))
            if len(inflight) >= WINDOW:
                self._collect(*inflight.popleft())
        while inflight:
            self._collect(*inflight.popleft())

    def _collect(self, start, pending, expected, root):
        try:
            response = pending.result(REQUEST_TIMEOUT_S)
            end = perf_counter()
            err = _RESPONSE_ERR.get(response.error, response.error)
            failed = int(not self.model.check(expected, err, response.value))
        except TimeoutError:
            end = perf_counter()
            failed = 1
        self._record(end - start, 1, failed)
        if root is not None:
            self.tracer.add(root, ROOT, start, end, None, root)


class _NullClient:
    """Answers every command at once, which leaves the generator's own work."""

    _response = Response(uid=None)

    def invoke_async(self, name, **args):
        return self

    def result(self, timeout):
        return self._response


def harness_cpu_s(cycle, model):
    """CPU seconds per request that a direct generator itself costs.

    On the direct workloads the generator threads also run the system's
    client proxy (routing, sequencing, in-process send), so their CPU
    time is not the harness's: the harness's share is timed here, by
    replaying one cycle against a client that does nothing.
    """
    generator = DirectGenerator(cycle, model, _NullClient())
    start = time.thread_time()
    generator.loop(limit=len(cycle))
    return (time.thread_time() - start) / len(cycle)


def cpu_seconds(pid):
    """User plus system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def rss_mb(pids):
    """Resident set of the processes, summed, from ``/proc/<pid>/status``."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


class _Snapshot(NamedTuple):
    """Everything read at one slice boundary."""

    at: float
    host: tuple  #: the ``cpu`` line of ``/proc/stat``
    spin: tuple  #: the spinners' ``(chunks done, CPU seconds used)``
    cpu_s: float
    gen_cpu_s: float
    counts: list  #: per generator, ``(ops, requests, samples)``


def _snapshot(generators, clocks, pids, awake):
    return _Snapshot(
        perf_counter(),
        read_cpu_counters(),
        awake.read(),
        sum(cpu_seconds(pid) for pid in pids),
        sum(time.clock_gettime(clock) for clock in clocks),
        [(gen.ops, gen.completed, gen.samples) for gen in generators],
    )


def _raise_generator_error(generators):
    for gen in generators:
        if gen.error is not None:
            raise gen.error


def run_window(generators, pids, awake, warmup_s, slices, slice_s):
    """Run the generators for a warm-up plus ``slices`` slices; return the slices.

    ``pids`` are the processes of the system under test: the runner
    (which also hosts the generator threads, whose own CPU time is
    recorded separately so it can be subtracted) and its replica children.
    ``awake`` is the running :class:`bench.keepawake.Awake`, the speed clock.
    """
    threads = [threading.Thread(target=gen.run, daemon=True) for gen in generators]
    for gen in generators:
        gen.stop = False
    for thread in threads:
        thread.start()
    snapshots = []
    try:
        clocks = [time.pthread_getcpuclockid(thread.ident) for thread in threads]
        begin = perf_counter() + warmup_s
        for boundary in range(slices + 1):
            while (remaining := begin + boundary * slice_s - perf_counter()) > 0:
                time.sleep(min(remaining, 0.05))
                _raise_generator_error(generators)
            snapshots.append(_snapshot(generators, clocks, pids, awake))
    except ProcessLookupError:
        pass  # a generator thread has ended, so its CPU clock is gone: reported below
    finally:
        for gen in generators:
            gen.stop = True
        for thread in threads:
            thread.join(3 * REQUEST_TIMEOUT_S)
    _raise_generator_error(generators)
    if len(snapshots) <= slices:
        raise RuntimeError("a generator thread ended before the window did")
    recorded = []
    for before, after in zip(snapshots, snapshots[1:]):
        counts = list(zip(before.counts, after.counts))
        recorded.append(
            Slice(
                seconds=after.at - before.at,
                ops=sum(new[0] - old[0] for old, new in counts),
                requests=sum(new[1] - old[1] for old, new in counts),
                cpu_s=after.cpu_s - before.cpu_s,
                gen_cpu_s=after.gen_cpu_s - before.gen_cpu_s,
                steal=steal_share(before.host, after.host),
                spin=(after.spin[0] - before.spin[0], after.spin[1] - before.spin[1]),
                samples=tuple((old[2], new[2]) for old, new in counts),
            )
        )
    return recorded
