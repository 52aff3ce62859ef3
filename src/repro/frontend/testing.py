"""In-process HTTP client for tests.

:class:`AsgiClient` speaks ASGI directly to the app — no sockets, no
server thread — with the response surface the integration tests are
written against (``status_code``, case-insensitive ``headers``,
``.json()``).
"""

import json as _json
import urllib.parse


class Headers:
    """Case-insensitive read-only header view."""

    def __init__(self, raw_pairs):
        self._items = [(k.decode("latin-1").lower(), v.decode("latin-1"))
                       for k, v in raw_pairs]

    def get(self, name, default=None):
        name = name.lower()
        for key, value in self._items:
            if key == name:
                return value
        return default

    def __getitem__(self, name):
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name):
        return self.get(name) is not None

    def items(self):
        return list(self._items)


class AsgiResponse:
    def __init__(self, status_code, headers, body):
        self.status_code = status_code
        self.headers = headers
        self.content = body

    def json(self):
        return _json.loads(self.content.decode("utf-8"))

    @property
    def text(self):
        return self.content.decode("utf-8", errors="replace")


class AsgiClient:
    """Async HTTP-over-ASGI client: ``await client.get("/kv/1")``."""

    def __init__(self, app, base_url="http://testserver"):
        self.app = app
        self.base_url = base_url

    async def request(self, method, path, json=None, params=None, headers=None):
        body = b""
        raw_headers = [(b"host", b"testserver")]
        if json is not None:
            body = _json.dumps(json).encode("utf-8")
            raw_headers.append((b"content-type", b"application/json"))
        raw_headers.append((b"content-length", str(len(body)).encode()))
        for name, value in (headers or {}).items():
            raw_headers.append((name.lower().encode(), str(value).encode()))
        path, _, inline_query = path.partition("?")
        query = inline_query
        if params:
            encoded = urllib.parse.urlencode(params)
            query = f"{inline_query}&{encoded}" if inline_query else encoded
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": path,
            "raw_path": path.encode(),
            "query_string": query.encode(),
            "headers": raw_headers,
            "client": ("testclient", 50000),
            "server": ("testserver", 80),
            "scheme": "http",
        }
        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        result = {"status": 500, "headers": [], "body": bytearray()}

        async def send(message):
            if message["type"] == "http.response.start":
                result["status"] = message["status"]
                result["headers"] = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                result["body"].extend(message.get("body", b""))

        await self.app(scope, receive, send)
        return AsgiResponse(
            result["status"], Headers(result["headers"]), bytes(result["body"])
        )

    async def get(self, path, **kwargs):
        return await self.request("GET", path, **kwargs)

    async def put(self, path, **kwargs):
        return await self.request("PUT", path, **kwargs)

    async def post(self, path, **kwargs):
        return await self.request("POST", path, **kwargs)

    async def delete(self, path, **kwargs):
        return await self.request("DELETE", path, **kwargs)

    async def aclose(self):
        pass

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.aclose()
        return False
