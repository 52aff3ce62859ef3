"""Unit tests for the metric recorders and result records."""

import pytest

from repro.common.errors import ConfigurationError
from repro.metrics import CpuAccountant, ExperimentResult, LatencyRecorder, ThroughputMeter


# ----------------------------------------------------------------------
# LatencyRecorder
# ----------------------------------------------------------------------
def test_latency_mean_of_empty_is_zero():
    assert LatencyRecorder().mean() == 0.0


def test_latency_mean():
    recorder = LatencyRecorder()
    for value in (1.0, 2.0, 3.0):
        recorder.record(value)
    assert recorder.mean() == pytest.approx(2.0)
    assert len(recorder) == 3


def test_latency_rejects_negative_samples():
    with pytest.raises(ConfigurationError):
        LatencyRecorder().record(-1.0)


def test_latency_cdf_monotonic_and_complete():
    recorder = LatencyRecorder()
    for value in range(100):
        recorder.record(float(value))
    curve = recorder.cdf(points=10)
    fractions = [fraction for _lat, fraction in curve]
    assert fractions == sorted(fractions)
    assert curve[-1][1] == pytest.approx(1.0)


def test_latency_reset_clears_samples():
    recorder = LatencyRecorder()
    recorder.record(1.0)
    recorder.reset()
    assert len(recorder) == 0


def test_latency_cdf_of_empty_is_empty():
    assert LatencyRecorder().cdf() == []


def test_latency_cdf_keeps_every_sample_when_there_are_few():
    recorder = LatencyRecorder()
    for value in (3.0, 1.0, 2.0):
        recorder.record(value)
    assert recorder.cdf(points=50) == [
        (1.0, pytest.approx(1 / 3)),
        (2.0, pytest.approx(2 / 3)),
        (3.0, pytest.approx(1.0)),
    ]


def test_latency_cdf_ends_at_the_maximum_when_the_step_skips_it():
    recorder = LatencyRecorder()
    for value in range(10):
        recorder.record(float(value))
    # Step 5 samples indices 0 and 5 only, so the maximum is appended.
    curve = recorder.cdf(points=2)
    assert curve[-1] == (9.0, 1.0)
    assert [latency for latency, _fraction in curve] == [0.0, 5.0, 9.0]


def test_latency_samples_is_a_copy():
    recorder = LatencyRecorder()
    recorder.record(1.0)
    samples = recorder.samples
    samples.append(2.0)
    assert recorder.samples == [1.0]


# ----------------------------------------------------------------------
# ThroughputMeter
# ----------------------------------------------------------------------
def test_throughput_counts_only_inside_window():
    meter = ThroughputMeter()
    meter.open_window(1.0)
    meter.close_window(2.0)
    meter.record_completion(0.5)   # before window
    meter.record_completion(1.5)   # inside
    meter.record_completion(2.5)   # after
    assert meter.completed == 1
    assert meter.throughput() == pytest.approx(1.0)


def test_throughput_without_window_is_zero():
    meter = ThroughputMeter()
    meter.record_completion(1.0)
    assert meter.throughput() == 0.0


def test_throughput_kcps_scaling():
    meter = ThroughputMeter()
    meter.open_window(0.0)
    meter.close_window(1.0)
    for _ in range(5000):
        meter.record_completion(0.5)
    assert meter.throughput_kcps() == pytest.approx(5.0)


def test_throughput_window_edges_are_inclusive():
    meter = ThroughputMeter()
    meter.open_window(1.0)
    meter.close_window(2.0)
    meter.record_completion(1.0)
    meter.record_completion(2.0)
    assert meter.completed == 2


def test_throughput_counts_while_the_window_is_open():
    meter = ThroughputMeter()
    meter.open_window(1.0)
    meter.record_completion(5.0)
    assert meter.completed == 1
    # No rate until the window closes.
    assert meter.throughput() == 0.0


def test_throughput_of_an_empty_window_is_zero():
    meter = ThroughputMeter()
    meter.open_window(1.0)
    meter.close_window(1.0)
    meter.record_completion(1.0)
    assert meter.throughput() == 0.0


# ----------------------------------------------------------------------
# CpuAccountant
# ----------------------------------------------------------------------
def test_cpu_charges_only_inside_window():
    cpu = CpuAccountant()
    cpu.open_window(1.0)
    cpu.close_window(2.0)
    cpu.charge("worker", 0.1, now=0.5)
    cpu.charge("worker", 0.2, now=1.5)
    cpu.charge("worker", 0.4, now=2.5)
    assert cpu.busy_time("worker") == pytest.approx(0.2)
    assert cpu.utilization("worker") == pytest.approx(0.2)


def test_cpu_rejects_negative_charge():
    with pytest.raises(ConfigurationError):
        CpuAccountant().charge("x", -1.0, now=0.0)


def test_cpu_total_percent_with_prefix():
    cpu = CpuAccountant()
    cpu.open_window(0.0)
    cpu.close_window(1.0)
    cpu.charge("server0/worker1", 0.5, now=0.5)
    cpu.charge("server0/worker2", 0.25, now=0.5)
    cpu.charge("server1/worker1", 0.9, now=0.5)
    assert cpu.total_cpu_percent(prefix="server0") == pytest.approx(75.0)
    assert cpu.total_cpu_percent() == pytest.approx(165.0)
    assert cpu.components() == ["server0/worker1", "server0/worker2", "server1/worker1"]


def test_cpu_charges_before_a_window_opens_count():
    cpu = CpuAccountant()
    cpu.charge("worker", 0.3, now=0.0)
    assert cpu.busy_time("worker") == pytest.approx(0.3)
    # Without a closed window there is no duration to divide by.
    assert cpu.utilization("worker") == 0.0
    assert cpu.total_cpu_percent() == 0.0


def test_cpu_unknown_component_is_idle():
    cpu = CpuAccountant()
    cpu.open_window(0.0)
    cpu.close_window(1.0)
    assert cpu.busy_time("nobody") == 0.0
    assert cpu.utilization("nobody") == 0.0
    assert cpu.components() == []


def test_cpu_empty_window_reports_zero():
    cpu = CpuAccountant()
    cpu.open_window(1.0)
    cpu.close_window(1.0)
    cpu.charge("worker", 0.5, now=1.0)
    assert cpu.busy_time("worker") == pytest.approx(0.5)
    assert cpu.utilization("worker") == 0.0
    assert cpu.total_cpu_percent() == 0.0


# ----------------------------------------------------------------------
# ExperimentResult
# ----------------------------------------------------------------------
def test_experiment_result_row_rounding():
    result = ExperimentResult(
        technique="P-SMR", threads=8, throughput_kcps=2645.123,
        avg_latency_ms=3.14159, cpu_percent=799.99, completed=1000,
    )
    row = result.as_row()
    assert row["throughput_kcps"] == 2645.1
    assert row["technique"] == "P-SMR"


def test_experiment_result_normalized_per_thread():
    result = ExperimentResult(
        technique="P-SMR", threads=8, throughput_kcps=2400.0,
        avg_latency_ms=1.0, cpu_percent=800.0, completed=1,
    )
    assert result.normalized_per_thread(600.0) == pytest.approx(0.5)
    assert result.normalized_per_thread(0.0) == 0.0


def test_experiment_result_normalized_without_threads_is_zero():
    result = ExperimentResult(
        technique="SMR", threads=0, throughput_kcps=100.0,
        avg_latency_ms=1.0, cpu_percent=100.0, completed=1,
    )
    assert result.normalized_per_thread(100.0) == 0.0
