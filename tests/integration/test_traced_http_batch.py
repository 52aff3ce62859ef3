"""The traced ``http-batch`` run at toy scale: every declared per-layer
metric is reported, the wire rows included.

``bench/tests`` traces ``http-point`` and ``direct-indep``; ``http-batch``
is the workload whose path is the process runtime's wire (32 commands a
request, ``d`` bursts and ``r`` batches), so its trace is held here.
"""

from bench import run
from bench.tests.test_smoke import TOY, surviving_children
from bench.workloads import WORKLOADS


def test_traced_http_batch_reports_every_declared_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    workload = WORKLOADS["http-batch"]
    (attempted, failed, converged), metrics = run.measure_traced(workload, 3, TOY)
    assert attempted > 0 and failed == 0 and converged
    assert surviving_children() == []
    _end_to_end, per_layer = run.declared_metrics()
    metrics["failed_frac"] = failed / attempted  # as run_workload adds it
    reported = run.layer_report(workload, per_layer, metrics)
    assert set(reported) == set(per_layer)
    for metric in (
        "frontend.server.self_us", "frontend.app.self_us", "frontend.backend.bridge_us",
        "runtime.cluster.client_self_us", "core.cg.route_us", "runtime.multicast.self_us",
        "runtime.transport.send_us", "runtime.replica.turnaround_us",
        "runtime.transport.wire.encode_us", "runtime.transport.wire.decode_us",
        "runtime.transport.wire.frame_bytes", "services.kvstore.execute_us",
        "runtime.multicast.msgs_per_op", "runtime.multicast.wire_bytes_per_op",
        "runtime.replica.avg_batch",
    ):
        assert reported[metric] > 0, metric
    assert reported["runtime.cluster.scaling_4v1"] == 0  # direct-indep only
