"""The client-facing HTTP frontend over the replicated services.

Endpoints (all JSON):

* ``GET/PUT/DELETE /kv/{key}`` — single-key operations on the replicated
  :class:`~repro.services.kvstore.KeyValueStoreServer`.  ``PUT`` takes a
  :class:`~repro.frontend.models.PutValueRequest` whose ``mode`` selects
  ``insert`` (409 when the key exists), ``update`` (404 when it does
  not), or ``upsert``.
* ``POST /kv/batch`` — up to 1024 operations, ordered as one command per
  destination group (``ClusterBackend.submit_batch``): the keyed ops of
  one group travel together, an op to every group alone, and every one
  is on its way before the first answer is awaited.
* ``/fs/file/{path}``, ``/fs/dir/{path}``, ``/fs/stat/{path}`` — NetFS
  file, directory and metadata operations.
* ``GET /healthz`` — replica liveness; ``GET /stats`` — backend and
  limiter counters.

Backpressure semantics: every data-plane request must win an in-flight
slot from the :class:`~repro.frontend.limits.InFlightLimiter` before it
touches the cluster; a full window is ``429`` with a ``Retry-After``
header, and a backend timeout is ``503`` (the command may still apply —
the client must treat it as indeterminate, exactly like a lost TCP ack).
Multi-leg writes (the upsert fallback chain) admit each leg separately —
a slot is never held across more than one backend round-trip, and an
upsert that loses every leg's race reports ``409`` (a clean conflict),
never ``503``.

``backend.submit`` is a plain call that multicasts the command and
returns the awaitable of its response (see
:mod:`repro.frontend.backend`): a handler with one command awaits it on
the spot, and ``/kv/batch`` hands all of its ops to
``backend.submit_batch``, which submits one command per destination
group and resolves to every op's ``(value, error)`` in op order.  The
request timeout travels with each command as a deadline in the
backend's per-loop queue.

The app runs on :mod:`repro.frontend.miniapi`, the bundled ASGI
framework (route decorators, signature-driven binding, pydantic
validation), served over sockets by :mod:`repro.frontend.server`.
"""

import itertools

import pydantic_core

from repro.frontend.backend import BackendTimeout
from repro.frontend.limits import InFlightLimiter, Saturated
from repro.frontend.miniapi import FastAPI, HTTPException, Response
from repro.frontend.models import (
    BatchRequest,
    FileWriteRequest,
    HealthResponse,
    PutValueRequest,
    ValueResponse,
    WriteResponse,
    decode_value,
    encode_value,
)

#: KV error strings produced by ``KeyValueStoreServer.apply``.
_ERR_NOT_FOUND = "err=1"
_ERR_EXISTS = "err=2"


def _not_found(what):
    return HTTPException(status_code=404, detail=f"{what} not found")


def _bad_payload(name, message, value):
    return HTTPException(
        status_code=422,
        detail=[
            {
                "type": "value_error",
                "loc": ["body", name],
                "msg": message,
                "input": value,
            }
        ],
    )


def _batch_op_result(op, error, value=None, encoding=None):
    """One op's entry in the ``/kv/batch`` answer: a plain dict, written
    out by the serialiser pydantic's models use (same keys, same order,
    same bytes) without a model built per op."""
    return {
        "op": op.op, "key": op.key, "ok": error is None, "error": error,
        "value": value, "encoding": encoding,
    }


def create_app(kv_backend=None, fs_backend=None, limiter=None,
               request_timeout=10.0):
    """Build the frontend app over already-running clusters.

    ``kv_backend`` / ``fs_backend`` are :class:`ClusterBackend` bridges
    (either may be omitted; its routes then answer 503).  The caller
    owns the clusters' lifecycles — the app never shuts them down.
    """
    if limiter is None:
        limiter = InFlightLimiter()
    app = FastAPI()
    # Exposed for tests and the stats endpoint.
    app.kv_backend = kv_backend
    app.fs_backend = fs_backend
    app.limiter = limiter
    # Deterministic logical clock for NetFS ``now`` args: replicas all
    # execute the same multicast args, so any frontend-chosen value is
    # consistent — a counter keeps test runs reproducible.
    ticks = itertools.count(1)

    def _admit():
        try:
            limiter.acquire()
        except Saturated as exc:
            raise HTTPException(
                status_code=429,
                detail="in-flight window full",
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            ) from None

    def _timed_out():
        return HTTPException(
            status_code=503,
            detail="backend timed out; the operation may still apply",
        )

    def _configured(backend):
        if backend is None:
            raise HTTPException(status_code=503, detail="service not configured")
        return backend

    async def _submit(backend, name, **args):
        try:
            return await _configured(backend).submit(
                name, timeout=request_timeout, **args
            )
        except BackendTimeout:
            raise _timed_out() from None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    @app.get("/healthz")
    async def healthz() -> HealthResponse:
        backend = kv_backend if kv_backend is not None else fs_backend
        if backend is None:
            raise HTTPException(status_code=503, detail="no backend configured")
        return HealthResponse(**backend.health())

    @app.get("/stats")
    async def stats():
        payload = {"limiter": limiter.stats()}
        if kv_backend is not None:
            payload["kv"] = kv_backend.stats()
        if fs_backend is not None:
            payload["fs"] = fs_backend.stats()
        return payload

    # ------------------------------------------------------------------
    # KV data plane
    # ------------------------------------------------------------------
    async def _kv_write_once(name, key, value):
        """One replicated write command; returns the error string or None."""
        if name == "delete":
            response = await _submit(kv_backend, "delete", key=key)
        else:
            response = await _submit(kv_backend, name, key=key, value=value)
        return response.error

    async def _kv_write_admitted(name, key, value):
        """One admitted write leg: the in-flight slot is taken immediately
        before the backend command and released as soon as it answers,
        never held across another leg's await (that would pin a slot
        through an arbitrary number of backend round-trips and starve
        the window under 429 pressure)."""
        _admit()
        try:
            return await _kv_write_once(name, key, value)
        finally:
            limiter.release()

    async def _kv_apply_mode(key, value, mode):
        """Run the selected write mode; return the ``applied`` label."""
        if mode == "insert":
            error = await _kv_write_admitted("insert", key, value)
            if error == _ERR_EXISTS:
                raise HTTPException(status_code=409, detail="key exists")
            return "insert"
        if mode == "update":
            error = await _kv_write_admitted("update", key, value)
            if error == _ERR_NOT_FOUND:
                raise _not_found("key")
            return "update"
        # upsert: update, fall back to insert, then once more to update —
        # bounded against concurrent deleters/inserters racing the key.
        # Every leg applied (or didn't) as a single replicated command, so
        # losing all three is a plain conflict: 409 and the client retries.
        # 503 would lie — that code means "indeterminate, may have applied".
        for attempt in ("update", "insert", "update"):
            error = await _kv_write_admitted(attempt, key, value)
            if error is None:
                return attempt
        raise HTTPException(
            status_code=409, detail="upsert lost repeated races; retry"
        )

    @app.get("/kv/{key}")
    async def kv_read(key: int) -> ValueResponse:
        _admit()
        try:
            response = await _submit(kv_backend, "read", key=key)
        finally:
            limiter.release()
        if response.error == _ERR_NOT_FOUND:
            raise _not_found("key")
        text, encoding = decode_value(response.value)
        return ValueResponse(key=key, value=text, encoding=encoding)

    @app.put("/kv/{key}")
    async def kv_put(key: int, body: PutValueRequest) -> WriteResponse:
        try:
            value = encode_value(body.value, body.encoding)
        except ValueError as exc:
            raise _bad_payload("value", str(exc), body.value) from None
        # Admission happens per write leg inside _kv_apply_mode: a
        # multi-leg upsert must not monopolise a slot between legs.
        applied = await _kv_apply_mode(key, value, body.mode)
        return WriteResponse(key=key, applied=applied)

    @app.delete("/kv/{key}")
    async def kv_delete(key: int) -> WriteResponse:
        _admit()
        try:
            error = await _kv_write_once("delete", key, None)
        finally:
            limiter.release()
        if error == _ERR_NOT_FOUND:
            raise _not_found("key")
        return WriteResponse(key=key, applied="delete")

    def _batch_call(op):
        """One batch op as a ``(name, args)`` call, or the result of an
        op that cannot be submitted."""
        if op.op in ("read", "delete"):
            return op.op, {"key": op.key}
        if op.value is None:
            return _batch_op_result(op, "value required")
        try:
            value = encode_value(op.value, op.encoding)
        except ValueError as exc:
            return _batch_op_result(op, str(exc))
        return op.op, {"key": op.key, "value": value}

    def _batch_result(op, value, error):
        if op.op == "read":
            if error is None:
                text, encoding = decode_value(value)
                return _batch_op_result(op, None, text, encoding)
            error = "not_found"
        elif error == _ERR_NOT_FOUND:
            error = "not_found"
        elif error == _ERR_EXISTS:
            error = "exists"
        return _batch_op_result(op, error)

    @app.post("/kv/batch")
    async def kv_batch(body: BatchRequest) -> Response:
        results = [_batch_call(op) for op in body.ops]
        submitted = [
            index for index, result in enumerate(results)
            if type(result) is tuple
        ]
        _admit()
        try:
            # One request's calls travel as one command per destination
            # group (``submit_batch``), all of them on their way before
            # the first answer is awaited.
            answers = await _configured(kv_backend).submit_batch(
                [results[index] for index in submitted], request_timeout
            )
        except BackendTimeout:
            raise _timed_out() from None
        finally:
            limiter.release()
        for index, (value, error) in zip(submitted, answers):
            results[index] = _batch_result(body.ops[index], value, error)
        return Response(
            pydantic_core.to_json({"results": results}),
            media_type="application/json",
        )

    # ------------------------------------------------------------------
    # NetFS data plane
    # ------------------------------------------------------------------
    def _fs_path(path):
        return path if path.startswith("/") else "/" + path

    def _fs_error(response, path):
        if response.error is None:
            return
        if response.error == "ENOENT":
            raise _not_found(f"path {path!r}")
        if response.error == "EEXIST":
            raise HTTPException(status_code=409, detail=f"path {path!r} exists")
        raise HTTPException(status_code=409, detail=response.error)

    @app.get("/fs/file/{path:path}")
    async def fs_read(path: str, size: int = 1 << 20, offset: int = 0):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(
                fs_backend, "read", path=full, size=size, offset=offset,
                now=float(next(ticks)),
            )
        finally:
            limiter.release()
        _fs_error(response, full)
        text, encoding = decode_value(response.value)
        return {"path": full, "data": text or "", "encoding": encoding or "utf8"}

    @app.put("/fs/file/{path:path}")
    async def fs_write(path: str, body: FileWriteRequest):
        full = _fs_path(path)
        try:
            data = encode_value(body.data, body.encoding)
        except ValueError as exc:
            raise _bad_payload("data", str(exc), body.data) from None
        _admit()
        try:
            if body.create:
                created = await _submit(
                    fs_backend, "create", path=full, now=float(next(ticks))
                )
                if created.error not in (None, "EEXIST"):
                    _fs_error(created, full)
            response = await _submit(
                fs_backend, "write", path=full, data=data,
                offset=body.offset, now=float(next(ticks)),
            )
        finally:
            limiter.release()
        _fs_error(response, full)
        return {"path": full, "written": response.value}

    @app.delete("/fs/file/{path:path}")
    async def fs_unlink(path: str):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(
                fs_backend, "unlink", path=full, now=float(next(ticks))
            )
        finally:
            limiter.release()
        _fs_error(response, full)
        return {"path": full, "removed": True}

    @app.get("/fs/dir/{path:path}")
    async def fs_readdir(path: str):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(fs_backend, "readdir", path=full)
        finally:
            limiter.release()
        _fs_error(response, full)
        return {"path": full, "entries": sorted(response.value)}

    @app.post("/fs/dir/{path:path}", status_code=201)
    async def fs_mkdir(path: str):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(
                fs_backend, "mkdir", path=full, now=float(next(ticks))
            )
        finally:
            limiter.release()
        _fs_error(response, full)
        return {"path": full, "created": True}

    @app.delete("/fs/dir/{path:path}")
    async def fs_rmdir(path: str):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(
                fs_backend, "rmdir", path=full, now=float(next(ticks))
            )
        finally:
            limiter.release()
        _fs_error(response, full)
        return {"path": full, "removed": True}

    @app.get("/fs/stat/{path:path}")
    async def fs_stat(path: str):
        full = _fs_path(path)
        _admit()
        try:
            response = await _submit(fs_backend, "lstat", path=full)
        finally:
            limiter.release()
        _fs_error(response, full)
        stat = response.value
        return {
            "path": full,
            "stat": {
                "is_dir": stat.is_dir,
                "size": stat.size,
                "mode": stat.mode,
                "nlink": stat.nlink,
                "atime": stat.atime,
                "mtime": stat.mtime,
            },
        }

    return app
