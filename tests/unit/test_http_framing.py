"""The HTTP server answers a request it cannot frame, then closes.

Each case goes over a real socket to :func:`run_app_in_thread`: a
request line or header line that does not parse, or a ``Content-Length``
that is not a non-negative integer, is a ``400``; a body over
:data:`MAX_BODY_BYTES` is a ``413``; a chunked body is a ``501``, and
its chunk lines are not read as a second request.  The connection is
closed after the one answer, and the next connection is served.
"""

import socket

import pytest

from repro.frontend.app import create_app
from repro.frontend.server import MAX_BODY_BYTES, run_app_in_thread


@pytest.fixture(scope="module")
def address(healthy_backend):
    base_url, stop = run_app_in_thread(create_app(kv_backend=healthy_backend))
    host, _, port = base_url.rpartition("//")[2].partition(":")
    yield host, int(port)
    stop()


def exchange(address, request):
    """Send ``request`` on a fresh connection; return everything the
    server wrote before it closed the connection."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def status_of(answer):
    return int(answer.split(b" ", 2)[1])


HEALTHZ = b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"PUT /kv/1 HTTP/1.1\r\ncontent-length: -5\r\n\r\n", 400),
        (b"PUT /kv/1 HTTP/1.1\r\ncontent-length: abc\r\n\r\n", 400),
        (b"PUT /kv/1 HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello", 400),
        (b"PUT /kv/1 HTTP/1.1\r\ncontent-length:\r\n\r\n", 400),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\n: empty name\r\n\r\n", 400),
        (b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nx-long: " + b"a" * (1 << 17) + b"\r\n\r\n", 400),
        (
            b"PUT /kv/1 HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            413,
        ),
        (
            b"PUT /kv/1 HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
            b'20\r\n{"value": "x", "mode": "insert"}\r\n0\r\n\r\n',
            501,
        ),
    ],
    ids=[
        "negative-length", "non-integer-length", "signed-length",
        "empty-length", "one-word-request-line", "four-word-request-line",
        "header-without-colon", "header-without-name", "request-line-too-long",
        "header-too-long", "body-over-the-cap", "chunked-body",
    ],
)
def test_an_unframeable_request_is_answered_and_the_next_is_served(
    address, request_bytes, status
):
    answer = exchange(address, request_bytes)
    # Answered once, then closed: ``exchange`` returned on the server's EOF.
    assert answer.count(b"HTTP/1.1 ") == 1
    assert status_of(answer) == status
    assert b"connection: close" in answer
    assert status_of(exchange(address, HEALTHZ)) == 200


def test_a_body_at_the_cap_is_not_refused_for_its_size(address):
    # Only the header is sent: a length at the cap is framed, so the
    # server waits for the body instead of answering 413.
    with socket.create_connection(address, timeout=0.5) as sock:
        sock.sendall(
            b"PUT /kv/1 HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % MAX_BODY_BYTES
        )
        with pytest.raises(socket.timeout):
            sock.recv(1)
    assert status_of(exchange(address, HEALTHZ)) == 200
