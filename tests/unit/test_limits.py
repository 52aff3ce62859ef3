"""Unit tests for the HTTP edge's non-queueing admission gate."""

import asyncio
import threading

import pytest

from repro.frontend.limits import InFlightLimiter, Saturated


def test_window_must_hold_at_least_one_request():
    with pytest.raises(ValueError):
        InFlightLimiter(max_in_flight=0)


def test_acquire_returns_the_new_in_flight_count():
    limiter = InFlightLimiter(max_in_flight=3)
    assert limiter.acquire() == 1
    assert limiter.acquire() == 2
    assert limiter.in_flight == 2
    assert limiter.admitted == 2


def test_full_window_rejects_with_the_retry_hint():
    limiter = InFlightLimiter(max_in_flight=2, retry_after=0.25)
    limiter.acquire()
    limiter.acquire()
    with pytest.raises(Saturated) as excinfo:
        limiter.acquire()
    assert excinfo.value.retry_after == 0.25
    assert excinfo.value.in_flight == 2
    assert limiter.rejected == 1
    # A rejection takes no slot.
    assert limiter.in_flight == 2


def test_release_frees_a_slot_for_the_next_request():
    limiter = InFlightLimiter(max_in_flight=1)
    limiter.acquire()
    with pytest.raises(Saturated):
        limiter.acquire()
    limiter.release()
    assert limiter.acquire() == 1
    assert limiter.admitted == 2
    assert limiter.rejected == 1


def test_release_without_acquire_raises():
    limiter = InFlightLimiter()
    with pytest.raises(RuntimeError):
        limiter.release()
    assert limiter.in_flight == 0


def test_peak_records_the_high_water_mark():
    limiter = InFlightLimiter(max_in_flight=8)
    for _ in range(5):
        limiter.acquire()
    for _ in range(4):
        limiter.release()
    limiter.acquire()
    assert limiter.in_flight == 2
    assert limiter.peak_in_flight == 5


def test_stats_report_every_counter():
    limiter = InFlightLimiter(max_in_flight=1)
    limiter.acquire()
    with pytest.raises(Saturated):
        limiter.acquire()
    assert limiter.stats() == {
        "max_in_flight": 1,
        "in_flight": 1,
        "peak_in_flight": 1,
        "admitted": 1,
        "rejected": 1,
    }


def test_async_context_manager_releases_even_when_the_body_raises():
    limiter = InFlightLimiter(max_in_flight=1)

    async def failing_request():
        async with limiter as in_flight:
            assert in_flight == 1
            raise KeyError("backend failed")

    with pytest.raises(KeyError):
        asyncio.run(failing_request())
    assert limiter.in_flight == 0
    assert limiter.admitted == 1


def test_async_context_manager_propagates_saturation():
    limiter = InFlightLimiter(max_in_flight=1)
    limiter.acquire()

    async def request():
        async with limiter:
            pass  # pragma: no cover - never admitted

    with pytest.raises(Saturated):
        asyncio.run(request())
    # The rejected request must not release the slot it never took.
    assert limiter.in_flight == 1


def test_concurrent_threads_never_exceed_the_window():
    limiter = InFlightLimiter(max_in_flight=3)
    threads = 8
    rounds = 200
    start = threading.Barrier(threads)

    def worker():
        start.wait()
        for _ in range(rounds):
            try:
                limiter.acquire()
            except Saturated:
                continue
            limiter.release()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    stats = limiter.stats()
    assert stats["in_flight"] == 0
    assert 1 <= stats["peak_in_flight"] <= 3
    assert stats["admitted"] + stats["rejected"] == threads * rounds
