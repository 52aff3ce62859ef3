"""Serving the frontend app over real sockets.

:class:`AsgiHTTPServer` is a small asyncio HTTP/1.1 server speaking
ASGI 3 to the app: stdlib only, so the frontend runs on the bare
container.  It supports keep-alive (the benchmark's clients reuse
connections) and Content-Length framing; no TLS, no chunked uploads — it
serves the repro's benchmarks and tests, not the open internet.
"""

import asyncio
import threading
import urllib.parse


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
            await self._server.wait_closed()
            self._server = None
        # Kick idle keep-alive connections so their handler tasks finish.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

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

    async def _handle_request(self, reader, writer):
        """Serve one request; return True to keep the connection open."""
        request_line = await reader.readline()
        if not request_line.strip():
            return False
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n")
            await writer.drain()
            return False
        headers = []
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers.append((name.strip().lower().encode(), value.strip().encode()))
        header_map = dict(headers)
        body = b""
        length = int(header_map.get(b"content-length", b"0") or b"0")
        if length:
            body = await reader.readexactly(length)
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
    """Run the app on a background thread; return ``(base_url, stop)``.

    For synchronous callers (tests using ``requests``); ``stop()`` shuts
    the server and joins the thread.
    """
    server = AsgiHTTPServer(app, host, port)
    started = threading.Event()
    loop_holder = {}

    def _run():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        asyncio.set_event_loop(loop)

        async def _main():
            await server.start()
            started.set()
            await asyncio.Event().wait()  # cancelled by stop()

        task = loop.create_task(_main())
        loop_holder["task"] = task
        try:
            loop.run_until_complete(task)
        except asyncio.CancelledError:
            pass
        loop.run_until_complete(server.stop())
        loop.close()

    thread = threading.Thread(target=_run, name="frontend-http", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("frontend HTTP server failed to start")

    def stop():
        loop = loop_holder["loop"]
        loop.call_soon_threadsafe(loop_holder["task"].cancel)
        thread.join(timeout=10.0)

    return f"http://{server.host}:{server.port}", stop

