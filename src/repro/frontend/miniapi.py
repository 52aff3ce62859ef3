"""A minimal, dependency-free ASGI framework with FastAPI's surface.

The hard rule is *no new dependencies*, so this module is the HTTP
frontend's one framework: the small FastAPI-shaped subset
:mod:`repro.frontend.app` uses, as a pure-stdlib (+pydantic) ASGI 3
application:

* ``FastAPI()`` with ``@app.get/put/post/delete("/kv/{key}")`` route
  decorators, ``{name}`` and ``{name:path}`` path parameters;
* handler-signature driven binding: path params converted per annotation,
  a pydantic-``BaseModel``-annotated parameter bound from the JSON body,
  remaining annotated scalars bound from the query string;
* pydantic validation errors → ``422`` with a FastAPI-style
  ``{"detail": [...]}`` body; ``HTTPException(status_code, detail,
  headers)`` → JSON error responses (``Retry-After`` on 429 rides on
  ``headers``);
* ``Response``/``JSONResponse`` returns, pydantic models serialised
  via ``model_dump_json()`` (pydantic's own writer; straight to bytes,
  no intermediate dict on the loop thread).
"""

import inspect
import json
import re
import urllib.parse

from pydantic import BaseModel, ValidationError

#: Annotations accepted for path/query parameters, with their converters.
_SCALAR_CONVERTERS = {
    int: int,
    float: float,
    str: str,
    bool: lambda raw: raw not in ("0", "false", "False", ""),
}

_PARAM_PATTERN = re.compile(r"{([a-zA-Z_][a-zA-Z0-9_]*)(?::(path|int|str))?}")


class HTTPException(Exception):
    """Raise inside a handler to produce a JSON error response."""

    def __init__(self, status_code, detail=None, headers=None):
        super().__init__(detail)
        self.status_code = status_code
        self.detail = detail
        self.headers = dict(headers or {})


class Response:
    """A raw response: bytes body, status code, extra headers."""

    media_type = "application/octet-stream"

    def __init__(self, content=b"", status_code=200, headers=None,
                 media_type=None):
        self.body = content if isinstance(content, bytes) else str(content).encode()
        self.status_code = status_code
        self.headers = dict(headers or {})
        if media_type is not None:
            self.media_type = media_type


class JSONResponse(Response):
    """A JSON response; ``content`` is serialised with ``json.dumps``."""

    media_type = "application/json"

    def __init__(self, content=None, status_code=200, headers=None):
        body = json.dumps(content, default=str).encode()
        super().__init__(body, status_code=status_code, headers=headers)


def _compile_path(path):
    """Turn ``/kv/{key}`` into a regex; ``{name:path}`` spans slashes."""
    pattern = "^"
    index = 0
    for match in _PARAM_PATTERN.finditer(path):
        pattern += re.escape(path[index:match.start()])
        # ``path`` matches across slashes and may be empty, like
        # Starlette's path convertor (``GET /fs/dir/`` lists the root).
        segment = ".*" if match.group(2) == "path" else "[^/]+"
        pattern += f"(?P<{match.group(1)}>{segment})"
        index = match.end()
    pattern += re.escape(path[index:]) + "$"
    return re.compile(pattern)


def _validation_detail(location, name, message, value):
    """One FastAPI-shaped validation error entry."""
    return {
        "type": "value_error",
        "loc": [location, name],
        "msg": message,
        "input": value,
    }


class RequestValidationError(Exception):
    """Collects 422 details (the shim's analogue of FastAPI's)."""

    def __init__(self, errors):
        super().__init__("request validation failed")
        self.detail = errors


class _Route:
    """One method+path pattern bound to a handler via signature inspection."""

    def __init__(self, method, path, handler, status_code=200):
        self.method = method
        self.path = path
        self.pattern = _compile_path(path)
        self.handler = handler
        self.status_code = status_code
        self.path_params = {m.group(1) for m in _PARAM_PATTERN.finditer(path)}
        self.body_param = None
        self.query_params = []  # (name, converter, default)
        self.converters = {}
        for name, param in inspect.signature(handler).parameters.items():
            annotation = param.annotation
            if name in self.path_params:
                self.converters[name] = _SCALAR_CONVERTERS.get(annotation, str)
            elif isinstance(annotation, type) and issubclass(annotation, BaseModel):
                self.body_param = (name, annotation)
            else:
                converter = _SCALAR_CONVERTERS.get(annotation, str)
                default = (
                    param.default
                    if param.default is not inspect.Parameter.empty
                    else None
                )
                required = param.default is inspect.Parameter.empty
                self.query_params.append((name, converter, default, required))

    def bind(self, match, query, body_bytes):
        """Build the handler's kwargs; raises RequestValidationError on 422."""
        kwargs = {}
        errors = []
        for name, raw in match.groupdict().items():
            raw = urllib.parse.unquote(raw)
            try:
                kwargs[name] = self.converters[name](raw)
            except (TypeError, ValueError):
                errors.append(_validation_detail("path", name, "invalid value", raw))
        for name, converter, default, required in self.query_params:
            if name in query:
                try:
                    kwargs[name] = converter(query[name][0])
                except (TypeError, ValueError):
                    errors.append(
                        _validation_detail("query", name, "invalid value", query[name][0])
                    )
            elif required:
                errors.append(_validation_detail("query", name, "field required", None))
            else:
                kwargs[name] = default
        if self.body_param is not None:
            name, model = self.body_param
            if not body_bytes:
                errors.append(_validation_detail("body", name, "field required", None))
            else:
                try:
                    kwargs[name] = model.model_validate_json(body_bytes)
                except ValidationError as exc:
                    errors.extend(_pydantic_errors(exc))
        if errors:
            raise RequestValidationError(errors)
        return kwargs


def _pydantic_errors(exc):
    """Pydantic v2 errors, made JSON-safe (ctx may hold exception objects)."""
    entries = []
    for error in exc.errors(include_url=False):
        entry = dict(error)
        entry["loc"] = ["body", *entry.get("loc", ())]
        if "ctx" in entry:
            entry["ctx"] = {key: str(value) for key, value in entry["ctx"].items()}
        if "input" in entry:
            try:
                json.dumps(entry["input"])
            except (TypeError, ValueError):
                entry["input"] = repr(entry["input"])
        entries.append(entry)
    return entries


class FastAPI:
    """The shim application: routing plus the ASGI 3 entry point."""

    def __init__(self):
        self.routes = []

    # -- route decorators (FastAPI's names) -----------------------------
    def _register(self, method, path, status_code):
        def decorator(handler):
            self.routes.append(_Route(method, path, handler, status_code))
            return handler

        return decorator

    def get(self, path, status_code=200):
        return self._register("GET", path, status_code)

    def put(self, path, status_code=200):
        return self._register("PUT", path, status_code)

    def post(self, path, status_code=200):
        return self._register("POST", path, status_code)

    def delete(self, path, status_code=200):
        return self._register("DELETE", path, status_code)

    # -- ASGI 3 --------------------------------------------------------
    async def __call__(self, scope, receive, send):
        if scope["type"] != "http":
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        body = bytearray()
        while True:
            message = await receive()
            if message["type"] == "http.request":
                body.extend(message.get("body", b""))
                if not message.get("more_body", False):
                    break
            elif message["type"] == "http.disconnect":
                return
        response = await self._dispatch(scope, bytes(body))
        headers = [(b"content-type", response.media_type.encode())]
        headers.extend(
            (key.lower().encode(), str(value).encode())
            for key, value in response.headers.items()
        )
        headers.append((b"content-length", str(len(response.body)).encode()))
        await send(
            {
                "type": "http.response.start",
                "status": response.status_code,
                "headers": headers,
            }
        )
        await send({"type": "http.response.body", "body": response.body})

    async def _dispatch(self, scope, body):
        method = scope["method"].upper()
        path = scope["path"]
        query = urllib.parse.parse_qs(scope.get("query_string", b"").decode())
        matched_path = False
        for route in self.routes:
            match = route.pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route.method != method:
                continue
            try:
                kwargs = route.bind(match, query, body)
                result = route.handler(**kwargs)
                if inspect.isawaitable(result):
                    result = await result
            except RequestValidationError as exc:
                return JSONResponse({"detail": exc.detail}, status_code=422)
            except ValidationError as exc:
                return JSONResponse(
                    {"detail": _pydantic_errors(exc)}, status_code=422
                )
            except HTTPException as exc:
                return JSONResponse(
                    {"detail": exc.detail},
                    status_code=exc.status_code,
                    headers=exc.headers,
                )
            return self._render(result, route.status_code)
        if matched_path:
            return JSONResponse({"detail": "Method Not Allowed"}, status_code=405)
        return JSONResponse({"detail": "Not Found"}, status_code=404)

    @staticmethod
    def _render(result, status_code):
        if isinstance(result, Response):
            return result
        if isinstance(result, BaseModel):
            return Response(
                result.model_dump_json().encode(), status_code,
                media_type=JSONResponse.media_type,
            )
        return JSONResponse(result, status_code)
