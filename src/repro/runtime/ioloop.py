"""The process's I/O loop: one asyncio event loop on one daemon thread.

Everything a coordinator process does on sockets runs here, on the
thread named ``psmr-io``: the TCP transport's listener and replica links
(:mod:`repro.runtime.transport.tcp`), the frame pump's passes
(:mod:`repro.runtime.transport.pump`) and the HTTP edge
(:func:`repro.frontend.server.run_app_in_thread`).  A point request is
then read, ordered, written to the replicas, answered and resolved
without a hand-off between threads: a single event-driven process, as in
the Flash web server (Pai, Druschel & Zwaenepoel, USENIX ATC 1999).

The loop starts on first use and lives as long as the process; clusters
and apps come and go on it.  A process that never opens a socket (a
threaded cluster without a fault plane, a replica process) never starts
it, and nothing here imports asyncio before it does.

A call that waits for something the loop has to do — a response, a
management reply, a hello, a cut report, a quiescent cluster, a
transport's teardown — must not run on the loop's own thread: it would
wait for itself.  :func:`forbid_blocking` turns that deadlock into a
:class:`~repro.common.errors.BlockingOnLoopError` at once.
"""

import threading

from repro.common.errors import BlockingOnLoopError

#: Thread name of the loop (what ``scripts/thread_cpu.py`` reports).
THREAD_NAME = "psmr-io"

#: How long a thread waits for the loop to start or to run a call for it.
_WAIT_SECONDS = 10.0

_lock = threading.Lock()
_loop = None
_ident = None  # the loop thread's ``threading.get_ident()``


def loop():
    """The process's event loop, running; started on the first call."""
    return _loop or _start()


def _start():
    global _loop
    with _lock:
        if _loop is None:
            import asyncio

            new = asyncio.new_event_loop()
            running = threading.Event()

            def serve():
                global _ident
                _ident = threading.get_ident()
                asyncio.set_event_loop(new)
                new.call_soon(running.set)
                new.run_forever()

            threading.Thread(target=serve, name=THREAD_NAME, daemon=True).start()
            running.wait()
            _loop = new
    return _loop


def forbid_blocking(what):
    """Raise :class:`BlockingOnLoopError` when called on the loop's thread."""
    if threading.get_ident() == _ident:
        raise BlockingOnLoopError(
            f"{what} blocks; on the I/O loop's thread it would wait for itself"
        )


def soon(callback, *args):
    """Run ``callback(*args)`` on the loop's next pass: ``call_soon`` from
    the loop's thread, ``call_soon_threadsafe`` (a self-pipe write) from
    any other."""
    if threading.get_ident() == _ident:
        _loop.call_soon(callback, *args)
    else:
        loop().call_soon_threadsafe(callback, *args)


def call(function, *args):
    """Run ``function(*args)`` on the loop; wait for and return its result
    (its exception is raised here).  Refused on the loop's thread."""
    forbid_blocking(getattr(function, "__qualname__", "a call onto the loop"))
    import concurrent.futures

    future = concurrent.futures.Future()

    def run():
        try:
            future.set_result(function(*args))
        except BaseException as exc:  # handed to the waiting caller
            future.set_exception(exc)

    loop().call_soon_threadsafe(run)
    return future.result(_WAIT_SECONDS)


def run(coroutine):
    """Run ``coroutine`` on the loop; wait for and return its result.
    Refused on the loop's thread."""
    if threading.get_ident() == _ident:
        coroutine.close()  # never awaited: no "was never awaited" warning
        forbid_blocking(coroutine.__qualname__)
    import asyncio

    return asyncio.run_coroutine_threadsafe(coroutine, loop()).result(
        _WAIT_SECONDS
    )
