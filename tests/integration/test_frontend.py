"""Service-level tests for the HTTP frontend (ISSUE 9).

Three layers of guarantee, each checked against a live replicated
cluster behind the real ASGI app:

* **contract** — status codes and body shapes of the public API
  (422 on malformed input, 404/409 on model errors, health/stats);
* **linearizability** — concurrent HTTP clients recorded into a
  :class:`HistoryRecorder` and checked with :func:`check_kv_history`,
  so the edge (routing, validation, limiter, asyncio bridge) provably
  does not reorder or invent acknowledgements;
* **backpressure** — at a one-slot in-flight window the frontend must
  shed load with ``429`` + ``Retry-After`` and never lose a write it
  acknowledged with ``200``.

The linearizability and backpressure suites run on BOTH the threaded
and the process-per-replica runtimes.
"""

import asyncio
import time

import pytest

from repro.frontend import ClusterBackend, InFlightLimiter, create_app
from repro.frontend.models import encode_value
from repro.frontend.testing import AsgiClient
from repro.runtime import ProcessPSMRCluster, ThreadedPSMRCluster
from repro.runtime.linearizability import HistoryRecorder, check_kv_history
from repro.services.kvstore import KVSTORE_SPEC, KeyValueStoreServer
from repro.services.netfs import NETFS_SPEC, NetFSServer

RUNTIMES = ("threaded", "proc")


def make_kv_cluster(flavour, initial_keys=32, mpl=2, replicas=2):
    if flavour == "threaded":
        return ThreadedPSMRCluster(
            KVSTORE_SPEC,
            lambda: KeyValueStoreServer(initial_keys=initial_keys),
            mpl=mpl,
            num_replicas=replicas,
            barrier_timeout=20.0,
        )
    return ProcessPSMRCluster(
        service="kvstore",
        service_args={"initial_keys": initial_keys},
        mpl=mpl,
        num_replicas=replicas,
        barrier_timeout=20.0,
    )


def kv_app(cluster, max_in_flight=64, request_timeout=15.0):
    return create_app(
        kv_backend=ClusterBackend(cluster),
        limiter=InFlightLimiter(max_in_flight=max_in_flight),
        request_timeout=request_timeout,
    )


# ----------------------------------------------------------------------
# API contract
# ----------------------------------------------------------------------
class TestContract:
    @pytest.fixture(scope="class")
    def client(self):
        with make_kv_cluster("threaded", initial_keys=32, mpl=4) as cluster:
            http = AsgiClient(kv_app(cluster))
            yield http
            asyncio.run(http.aclose())

    def test_read_seeded_key(self, client):
        response = asyncio.run(client.get("/kv/1"))
        assert response.status_code == 200
        payload = response.json()
        assert payload["key"] == 1
        assert set(payload) == {"key", "value", "encoding"}
        assert encode_value(payload["value"], payload["encoding"]) == b"\x00" * 8

    def test_read_unknown_key_is_404(self, client):
        response = asyncio.run(client.get("/kv/999999"))
        assert response.status_code == 404

    def test_non_integer_key_is_422(self, client):
        response = asyncio.run(client.get("/kv/not-a-key"))
        assert response.status_code == 422

    def test_put_without_value_is_422(self, client):
        response = asyncio.run(client.put("/kv/5", json={"mode": "upsert"}))
        assert response.status_code == 422

    def test_put_with_unknown_field_is_422(self, client):
        response = asyncio.run(
            client.put("/kv/5", json={"value": "x", "surprise": 1})
        )
        assert response.status_code == 422

    def test_put_with_bad_mode_is_422(self, client):
        response = asyncio.run(
            client.put("/kv/5", json={"value": "x", "mode": "clobber"})
        )
        assert response.status_code == 422

    def test_put_with_invalid_base64_is_422(self, client):
        response = asyncio.run(
            client.put("/kv/5", json={"value": "!!!", "encoding": "base64"})
        )
        assert response.status_code == 422

    def test_insert_existing_key_is_409(self, client):
        response = asyncio.run(
            client.put("/kv/2", json={"value": "x", "mode": "insert"})
        )
        assert response.status_code == 409

    def test_update_missing_key_is_404(self, client):
        response = asyncio.run(
            client.put("/kv/424242", json={"value": "x", "mode": "update"})
        )
        assert response.status_code == 404

    def test_write_read_delete_roundtrip(self, client):
        async def roundtrip():
            put = await client.put(
                "/kv/7001", json={"value": "hello", "mode": "insert"}
            )
            assert put.status_code == 200
            assert put.json() == {"key": 7001, "applied": "insert"}
            got = await client.get("/kv/7001")
            assert got.status_code == 200
            payload = got.json()
            assert encode_value(payload["value"], payload["encoding"]) == b"hello"
            gone = await client.delete("/kv/7001")
            assert gone.status_code == 200
            assert (await client.get("/kv/7001")).status_code == 404

        asyncio.run(roundtrip())

    def test_delete_missing_key_is_404(self, client):
        response = asyncio.run(client.delete("/kv/888888"))
        assert response.status_code == 404

    def test_batch_mixed_ops(self, client):
        body = {
            "ops": [
                {"op": "insert", "key": 7100, "value": "a"},
                {"op": "read", "key": 7100},
                {"op": "read", "key": 654321},
                {"op": "delete", "key": 7100},
            ]
        }
        response = asyncio.run(client.post("/kv/batch", json=body))
        assert response.status_code == 200
        results = response.json()["results"]
        assert len(results) == 4
        assert results[0]["ok"] is True
        assert results[1]["ok"] is True
        assert encode_value(results[1]["value"], results[1]["encoding"]) == b"a"
        assert results[2]["ok"] is False
        assert results[2]["error"] == "not_found"
        assert results[3]["ok"] is True

    def test_batch_response_bytes_are_pinned(self, client):
        """The exact body ``/kv/batch`` writes for every result shape:
        a utf8 read (non-ASCII and JSON escapes included), a seeded
        ``\\x00`` read, a base64 read, ``exists``, ``not_found``, writes,
        and the per-op errors of a missing value and of invalid base64."""
        body = {
            "ops": [
                {"op": "insert", "key": 7300,
                 "value": "h\u00e9llo \u2603 \U0001f600 \"q\" \\ \n\t\u2028"},
                {"op": "read", "key": 7300},
                {"op": "read", "key": 3},
                {"op": "insert", "key": 3, "value": "x"},
                {"op": "update", "key": 7300, "value": "plain"},
                {"op": "read", "key": 7300},
                {"op": "read", "key": 654322},
                {"op": "update", "key": 654323, "value": "x"},
                {"op": "delete", "key": 654324},
                {"op": "insert", "key": 7301},
                {"op": "update", "key": 7302, "value": "QQ", "encoding": "base64"},
                {"op": "insert", "key": 7303, "value": "gP8=", "encoding": "base64"},
                {"op": "read", "key": 7303},
                {"op": "delete", "key": 7300},
            ]
        }
        response = asyncio.run(client.post("/kv/batch", json=body))
        assert response.status_code == 200
        assert response.headers["content-type"] == "application/json"
        assert response.content == (
            b'{"results":['
            b'{"op":"insert","key":7300,"ok":true,"error":null,"value":null,"encoding":null},'
            b'{"op":"read","key":7300,"ok":true,"error":null,'
            b'"value":"h\xc3\xa9llo \xe2\x98\x83 \xf0\x9f\x98\x80 \\"q\\" \\\\ \\n\\t\xe2\x80\xa8",'
            b'"encoding":"utf8"},'
            b'{"op":"read","key":3,"ok":true,"error":null,'
            b'"value":"\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000\\u0000",'
            b'"encoding":"utf8"},'
            b'{"op":"insert","key":3,"ok":false,"error":"exists","value":null,"encoding":null},'
            b'{"op":"update","key":7300,"ok":true,"error":null,"value":null,"encoding":null},'
            b'{"op":"read","key":7300,"ok":true,"error":null,"value":"plain","encoding":"utf8"},'
            b'{"op":"read","key":654322,"ok":false,"error":"not_found","value":null,"encoding":null},'
            b'{"op":"update","key":654323,"ok":false,"error":"not_found","value":null,"encoding":null},'
            b'{"op":"delete","key":654324,"ok":false,"error":"not_found","value":null,"encoding":null},'
            b'{"op":"insert","key":7301,"ok":false,"error":"value required","value":null,"encoding":null},'
            b'{"op":"update","key":7302,"ok":false,'
            b'"error":"invalid base64 payload: Incorrect padding","value":null,"encoding":null},'
            b'{"op":"insert","key":7303,"ok":true,"error":null,"value":null,"encoding":null},'
            b'{"op":"read","key":7303,"ok":true,"error":null,"value":"gP8=","encoding":"base64"},'
            b'{"op":"delete","key":7300,"ok":true,"error":null,"value":null,"encoding":null}'
            b']}'
        )

    def test_empty_batch_is_422(self, client):
        response = asyncio.run(client.post("/kv/batch", json={"ops": []}))
        assert response.status_code == 422

    def test_healthz(self, client):
        response = asyncio.run(client.get("/healthz"))
        assert response.status_code == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["runtime"] == "threaded"
        assert payload["live_replicas"] == 2
        assert payload["num_replicas"] == 2

    def test_stats_shape(self, client):
        response = asyncio.run(client.get("/stats"))
        assert response.status_code == 200
        payload = response.json()
        assert "kv" in payload and "limiter" in payload
        assert payload["kv"]["submitted"] >= 1
        assert payload["limiter"]["max_in_flight"] == 64

    def test_unrouted_path_is_404(self, client):
        response = asyncio.run(client.get("/kv"))
        assert response.status_code == 404


class TestNetFSContract:
    @pytest.fixture(scope="class")
    def client(self):
        cluster = ThreadedPSMRCluster(
            NETFS_SPEC,
            NetFSServer,
            mpl=2,
            num_replicas=2,
            barrier_timeout=20.0,
        )
        with cluster:
            app = create_app(
                fs_backend=ClusterBackend(cluster),
                limiter=InFlightLimiter(max_in_flight=64),
                request_timeout=15.0,
            )
            http = AsgiClient(app)
            yield http
            asyncio.run(http.aclose())

    def test_file_lifecycle_over_http(self, client):
        async def lifecycle():
            made = await client.post("/fs/dir/project")
            assert made.status_code == 201
            wrote = await client.put(
                "/fs/file/project/notes.txt", json={"data": "line one"}
            )
            assert wrote.status_code == 200
            read = await client.get("/fs/file/project/notes.txt")
            assert read.status_code == 200
            payload = read.json()
            assert encode_value(payload["data"], payload["encoding"]) == b"line one"
            listing = await client.get("/fs/dir/project")
            assert listing.status_code == 200
            assert "notes.txt" in listing.json()["entries"]
            stat = await client.get("/fs/stat/project/notes.txt")
            assert stat.status_code == 200
            assert stat.json()["stat"]["is_dir"] is False
            assert stat.json()["stat"]["size"] == len(b"line one")
            gone = await client.delete("/fs/file/project/notes.txt")
            assert gone.status_code == 200
            assert (await client.get("/fs/file/project/notes.txt")).status_code == 404

        asyncio.run(lifecycle())

    def test_missing_file_and_duplicate_dir(self, client):
        async def errors():
            assert (await client.get("/fs/file/nope.txt")).status_code == 404
            assert (await client.post("/fs/dir/dup")).status_code == 201
            assert (await client.post("/fs/dir/dup")).status_code == 409
            root = await client.get("/fs/dir/")
            assert root.status_code == 200
            assert "dup" in root.json()["entries"]

        asyncio.run(errors())

    def test_directory_removal_over_http(self, client):
        async def rmdir():
            assert (await client.post("/fs/dir/attic")).status_code == 201
            wrote = await client.put("/fs/file/attic/a.txt", json={"data": "x"})
            assert wrote.status_code == 200
            busy = await client.delete("/fs/dir/attic")
            assert busy.status_code == 409  # ENOTEMPTY
            assert (await client.delete("/fs/file/attic/a.txt")).status_code == 200
            gone = await client.delete("/fs/dir/attic")
            assert gone.status_code == 200
            assert gone.json() == {"path": "/attic", "removed": True}
            assert "attic" not in (await client.get("/fs/dir/")).json()["entries"]
            assert (await client.delete("/fs/dir/attic")).status_code == 404

        asyncio.run(rmdir())


# ----------------------------------------------------------------------
# Linearizability through the HTTP edge
# ----------------------------------------------------------------------
async def _recorded_http_op(http, recorder, client_id, name, key, value=None):
    """Issue one KV op over HTTP and record it for the checker.

    429 is retried (the request was never submitted, so it is not part
    of the history); 503 is recorded as pending (possibly applied).
    Any other unexpected status fails the test outright.
    """
    args = {"key": key}
    if value is not None:
        args["value"] = value
    while True:
        invoked_at = time.monotonic()
        if name == "read":
            response = await http.get(f"/kv/{key}")
        elif name == "delete":
            response = await http.delete(f"/kv/{key}")
        else:
            response = await http.put(
                f"/kv/{key}", json={"value": value.decode(), "mode": name}
            )
        if response.status_code == 429:
            await asyncio.sleep(float(response.headers.get("retry-after", 0.01)))
            continue
        if response.status_code == 503:
            recorder.record_pending(client_id, name, args, invoked_at)
            return response
        returned_at = time.monotonic()
        result = None
        if name == "read":
            if response.status_code == 200:
                payload = response.json()
                result = encode_value(payload["value"], payload["encoding"])
            else:
                assert response.status_code == 404, response.status_code
        else:
            if response.status_code == 404:
                result = "err=1"
            elif response.status_code == 409:
                result = "err=2"
            else:
                assert response.status_code == 200, response.status_code
        recorder.record(client_id, name, args, result, invoked_at, returned_at)
        return response


@pytest.mark.parametrize("flavour", RUNTIMES)
def test_concurrent_http_clients_are_linearizable(flavour):
    """Many async HTTP clients hammer two keys; the history must check out."""
    recorder = HistoryRecorder()
    keys = (9001, 9002)  # above initial_keys: both start absent

    async def one_client(http, client_id):
        import random

        rng = random.Random(4000 + client_id)
        for op_index in range(10):
            key = keys[(client_id + op_index) % len(keys)]
            name = rng.choice(("insert", "read", "update", "read", "delete"))
            value = f"c{client_id}o{op_index}".encode()
            await _recorded_http_op(
                http, recorder, client_id, name, key,
                value if name in ("insert", "update") else None,
            )

    async def drive(app):
        http = AsgiClient(app)
        try:
            await asyncio.gather(*(one_client(http, cid) for cid in range(6)))
        finally:
            await http.aclose()

    with make_kv_cluster(flavour, initial_keys=16) as cluster:
        asyncio.run(drive(kv_app(cluster)))

    assert len(recorder.operations) == 60
    assert check_kv_history(recorder.operations, initial_state={})


# ----------------------------------------------------------------------
# Backpressure: shed load, never lose an acknowledged write
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flavour", RUNTIMES)
def test_backpressure_sheds_load_without_losing_acked_writes(flavour):
    """A one-slot window under 24 concurrent writers must produce 429s
    (with a Retry-After header) and still persist every 200-acked PUT."""
    acked = {}
    saw_429 = []

    async def writer(http, index):
        key = 8100 + index
        value = f"w{index}"
        while True:
            response = await http.put(
                f"/kv/{key}", json={"value": value, "mode": "insert"}
            )
            if response.status_code == 429:
                retry_after = response.headers.get("retry-after")
                assert retry_after is not None
                assert float(retry_after) >= 0
                saw_429.append(index)
                await asyncio.sleep(float(retry_after))
                continue
            assert response.status_code == 200, response.status_code
            acked[key] = value.encode()
            return

    async def verify(http):
        for key, value in acked.items():
            response = await http.get(f"/kv/{key}")
            assert response.status_code == 200, (
                f"acknowledged write to key {key} was lost"
            )
            payload = response.json()
            assert encode_value(payload["value"], payload["encoding"]) == value

    async def drive(app):
        http = AsgiClient(app)
        try:
            await asyncio.gather(*(writer(http, index) for index in range(24)))
            await verify(http)
        finally:
            await http.aclose()

    with make_kv_cluster(flavour, initial_keys=8) as cluster:
        asyncio.run(drive(kv_app(cluster, max_in_flight=1)))

    assert saw_429, "a one-slot window under 24 writers should reject some"
    assert len(acked) == 24  # every writer eventually got through


class _ScriptedKV:
    """A ``ClusterBackend`` double: ``submit`` plays back scripted KV
    error strings and samples the limiter while the command is in
    flight, so tests can pin exactly when slots are held."""

    def __init__(self, limiter, errors):
        self.limiter = limiter
        self.errors = list(errors)
        self.calls = []  # (command name, in_flight sampled during submit)

    async def submit(self, name, timeout=None, **args):
        self.calls.append((name, self.limiter.in_flight))
        await asyncio.sleep(0)  # a real backend always yields the loop
        import types

        return types.SimpleNamespace(error=self.errors.pop(0), value=None)


class TestUpsertAdmission:
    """The upsert fallback chain must admit each leg separately and
    report a lost race as 409, never 503 (503 means indeterminate)."""

    def _put(self, app, key=1):
        async def drive():
            http = AsgiClient(app)
            try:
                return await http.put(
                    f"/kv/{key}", json={"value": "v", "mode": "upsert"}
                )
            finally:
                await http.aclose()

        return asyncio.run(drive())

    def test_upsert_admits_each_leg_separately(self):
        limiter = InFlightLimiter(max_in_flight=1)
        # update misses, the insert fallback wins.
        backend = _ScriptedKV(limiter, ["err=1", None])
        app = create_app(kv_backend=backend, limiter=limiter)
        response = self._put(app)
        assert response.status_code == 200
        assert response.json()["applied"] == "insert"
        assert [name for name, _ in backend.calls] == ["update", "insert"]
        # One acquire per leg (the old code admitted once for the whole
        # chain), each leg holding exactly one slot, all released.
        assert limiter.stats()["admitted"] == 2
        assert all(in_flight == 1 for _, in_flight in backend.calls)
        assert limiter.in_flight == 0

    def test_lost_upsert_race_is_409_not_503(self):
        limiter = InFlightLimiter(max_in_flight=4)
        # Racing deleters/inserters defeat all three legs.
        backend = _ScriptedKV(limiter, ["err=1", "err=2", "err=1"])
        app = create_app(kv_backend=backend, limiter=limiter)
        response = self._put(app)
        assert response.status_code == 409
        assert [name for name, _ in backend.calls] == [
            "update", "insert", "update"
        ]
        assert limiter.stats()["admitted"] == 3
        assert limiter.in_flight == 0


@pytest.mark.parametrize("flavour", RUNTIMES)
def test_concurrent_upserts_share_a_tiny_window(flavour):
    """16 upserters and 2 deleters race one key through a two-slot
    window: every upsert must finish 200 (applied) or 409 (clean
    conflict) — never 503 — and the window must drain to zero."""
    statuses = []

    async def backoff(response):
        await asyncio.sleep(float(response.headers.get("retry-after", 0.01)))

    async def upserter(http, index):
        while True:
            response = await http.put(
                "/kv/9500", json={"value": f"u{index}", "mode": "upsert"}
            )
            if response.status_code == 429:
                await backoff(response)
                continue
            statuses.append(response.status_code)
            return

    async def deleter(http):
        for _ in range(6):
            response = await http.delete("/kv/9500")
            if response.status_code == 429:
                await backoff(response)
                continue
            assert response.status_code in (200, 404), response.status_code

    async def drive(app):
        http = AsgiClient(app)
        try:
            await asyncio.gather(
                *(upserter(http, index) for index in range(16)),
                deleter(http),
                deleter(http),
            )
            final = await http.get("/kv/9500")
            assert final.status_code in (200, 404)
        finally:
            await http.aclose()

    with make_kv_cluster(flavour, initial_keys=8) as cluster:
        app = kv_app(cluster, max_in_flight=2)
        asyncio.run(drive(app))
        assert set(statuses) <= {200, 409}
        assert statuses.count(200) >= 1
        assert app.limiter.in_flight == 0


def test_limiter_stats_track_rejections():
    with make_kv_cluster("threaded", initial_keys=8) as cluster:
        app = kv_app(cluster, max_in_flight=1)

        async def drive():
            http = AsgiClient(app)
            try:
                await asyncio.gather(
                    *(
                        http.put(f"/kv/{8200 + i}", json={"value": "v"})
                        for i in range(16)
                    )
                )
            finally:
                await http.aclose()

        asyncio.run(drive())
        stats = app.limiter.stats()
        assert stats["peak_in_flight"] == 1
        assert stats["admitted"] + stats["rejected"] >= 16


def test_backend_timeout_maps_to_503():
    """An unstarted cluster never answers: the edge must 503, not hang."""
    cluster = make_kv_cluster("threaded", initial_keys=4)
    app = create_app(
        kv_backend=ClusterBackend(cluster),
        limiter=InFlightLimiter(max_in_flight=4),
        request_timeout=0.05,
    )

    async def drive():
        http = AsgiClient(app)
        try:
            return await http.get("/kv/1")
        finally:
            await http.aclose()

    response = asyncio.run(drive())
    assert response.status_code == 503
    stats = app.kv_backend.stats()
    assert stats["timed_out"] >= 1
