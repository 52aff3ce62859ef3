"""Self time: a span minus the part of it that its children cover."""

import pytest

from bench.tracing import (
    APP, CURRENT, ROOT, ROUTE, SUBMIT, Tracer, self_times, stage_metrics,
)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        (1, ROOT, 0.0, 10.0, None, 1),
        (2, APP, 1.0, 4.0, 1, 1),
        (3, APP, 3.0, 6.0, 1, 1),
        (4, APP, 8.0, 12.0, 1, 1),  # clipped to its parent
        (5, SUBMIT, 1.5, 2.0, 2, 1),
    ]
    selfs = self_times(spans)
    assert selfs[ROOT] == [pytest.approx(3.0)]
    assert selfs[APP] == [pytest.approx(2.5), pytest.approx(3.0), pytest.approx(4.0)]
    assert selfs[SUBMIT] == [pytest.approx(0.5)]


def test_stage_medians_cover_the_request_latency():
    spans = []
    for request in (10, 20, 30):
        spans += [
            (request, ROOT, 0.0, 1.0e-3, None, request),
            (request + 1, APP, 0.2e-3, 0.9e-3, request, request),
            (request + 2, SUBMIT, 0.3e-3, 0.8e-3, request + 1, request),
        ]
    metrics = stage_metrics(spans)
    assert metrics["frontend.server.self_us"] == pytest.approx(300)
    assert metrics["frontend.app.self_us"] == pytest.approx(200)
    assert metrics["frontend.backend.bridge_us"] == pytest.approx(500)
    assert "core.cg.route_us" not in metrics  # no span, no value: never a 0
    assert metrics["trace.coverage"] == pytest.approx(1.0)


def test_without_an_app_span_the_request_span_is_not_a_server():
    spans = [
        (1, ROOT, 0.0, 1.0e-3, None, 1),
        (2, ROUTE, 0.1e-3, 0.3e-3, 1, 1),
    ]
    metrics = stage_metrics(spans)
    assert "frontend.server.self_us" not in metrics
    assert metrics["core.cg.route_us"] == pytest.approx(200)
    assert metrics["trace.coverage"] == pytest.approx(0.2)
    with pytest.raises(RuntimeError):
        stage_metrics([])


def test_a_wrapper_records_only_inside_a_traced_request():
    tracer = Tracer()
    double = tracer.wrap("layer", lambda value: 2 * value)
    assert double(2) == 4 and tracer.spans == []
    token = CURRENT.set((7, 7))
    try:
        assert double(3) == 6
    finally:
        CURRENT.reset(token)
    ((_span, name, start, end, parent, request),) = tracer.spans
    assert (name, parent, request) == ("layer", 7, 7) and end >= start
