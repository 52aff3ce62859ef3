"""Serving the frontend app over real sockets.

:class:`AsgiHTTPServer` is a small asyncio HTTP/1.1 server speaking
ASGI 3 to the app: stdlib only, so the frontend runs on the bare
container.  It supports keep-alive (the benchmark's clients reuse
connections) and Content-Length framing; no TLS, no chunked uploads — it
serves the repro's benchmarks and tests, not the open internet.  A
request it cannot frame — an unparseable request line or header line, a
``Content-Length`` that is not a non-negative integer — is answered
``400``, a body over :data:`MAX_BODY_BYTES` ``413``, and a request that
carries ``Transfer-Encoding`` (chunked or any other coding) ``501``,
before the app sees it; then the connection is closed, its unread input
dropped, and the server goes on serving the others.

:func:`run_app_in_thread` serves on the process's I/O loop
(:mod:`repro.runtime.ioloop`), the thread that also carries the process
runtime's replica links: a request's command is ordered, written to the
replicas and its answer read back without leaving that thread.
"""

import asyncio
import urllib.parse

from repro.runtime import ioloop

#: The largest request body served.  Above anything a route takes: a
#: ``/kv/batch`` of its 1024 operations or a file write of a few MiB is
#: far below it; the bound keeps a client from sizing the server's buffer.
MAX_BODY_BYTES = 16 << 20

#: How long a refused connection's remaining input is read before it closes.
LINGER_SECONDS = 1.0

_REASONS = {400: b"Bad Request", 413: b"Content Too Large", 501: b"Not Implemented"}


class AsgiHTTPServer:
    """Serve one ASGI app on ``host:port`` (port 0 picks a free port)."""

    def __init__(self, app, host="127.0.0.1", port=0):
        self.app = app
        self.host = host
        self.port = port
        self._server = None
        self._connections = set()

    async def start(self):
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self):
        if self._server is not None:
            self._server.close()
        # Kick idle keep-alive connections so their handler tasks finish
        # (a server's ``wait_closed`` may wait for its connections).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while await self._handle_request(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _refuse(reader, writer, status):
        """Answer a request that cannot be framed; the connection closes.

        A lingering close: the answer, then end of stream, then whatever
        the client still sends is read and dropped (for
        :data:`LINGER_SECONDS` at most) — closing on unread bytes would
        reset the connection, and the answer with it.
        """
        writer.write(
            b"HTTP/1.1 %d %s\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
            % (status, _REASONS[status])
        )
        await writer.drain()
        writer.write_eof()

        async def discard():
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass
        return False

    async def _handle_request(self, reader, writer):
        """Serve one request; return True to keep the connection open."""
        try:
            request_line = await reader.readline()
        except ValueError:  # longer than the stream's line limit
            return await self._refuse(reader, writer, 400)
        if not request_line.strip():
            return False
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return await self._refuse(reader, writer, 400)
        headers = []
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return await self._refuse(reader, writer, 400)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or len(name.split()) != 1 or name != name.lstrip():
                return await self._refuse(reader, writer, 400)
            headers.append((name.strip().lower().encode(), value.strip().encode()))
        header_map = dict(headers)
        if b"transfer-encoding" in header_map:
            # Its body is not framed by Content-Length: serving it would
            # read the body's chunk lines as the next request.
            return await self._refuse(reader, writer, 501)
        length = header_map.get(b"content-length", b"0")
        if not length.isdigit():  # ASCII digits only: no sign, no space
            return await self._refuse(reader, writer, 400)
        length = int(length)
        if length > MAX_BODY_BYTES:
            return await self._refuse(reader, writer, 413)
        body = await reader.readexactly(length) if length else b""
        raw_path, _, raw_query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": urllib.parse.unquote(raw_path),
            "raw_path": raw_path.encode(),
            "query_string": raw_query.encode(),
            "headers": headers,
            "client": writer.get_extra_info("peername"),
            "server": (self.host, self.port),
            "scheme": "http",
        }

        request_messages = [
            {"type": "http.request", "body": body, "more_body": False}
        ]

        async def receive():
            if request_messages:
                return request_messages.pop(0)
            return {"type": "http.disconnect"}

        response = {"status": 500, "headers": [], "body": bytearray()}

        async def send(message):
            if message["type"] == "http.response.start":
                response["status"] = message["status"]
                response["headers"] = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                response["body"].extend(message.get("body", b""))

        await self.app(scope, receive, send)

        keep_alive = header_map.get(b"connection", b"keep-alive").lower() != b"close"
        payload = bytes(response["body"])
        lines = [f"HTTP/1.1 {response['status']} X".encode()]
        has_length = False
        for name, value in response["headers"]:
            if name.lower() == b"content-length":
                has_length = True
            lines.append(name + b": " + value)
        if not has_length:
            lines.append(b"content-length: " + str(len(payload)).encode())
        lines.append(
            b"connection: keep-alive" if keep_alive else b"connection: close"
        )
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n" + payload)
        await writer.drain()
        return keep_alive


def run_app_in_thread(app, host="127.0.0.1", port=0):
    """Serve the app on the process's I/O loop; return ``(base_url, stop)``.

    For synchronous callers (the benchmark, tests using ``requests``):
    the loop's thread serves it, and ``stop()`` closes the server and
    its connections and returns once they are gone.  Neither may be
    called on that thread.
    """
    server = AsgiHTTPServer(app, host, port)
    ioloop.run(server.start())

    def stop():
        ioloop.run(server.stop())

    return f"http://{server.host}:{server.port}", stop
