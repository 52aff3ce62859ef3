"""Steal sampling, the ``host.*`` flags, the tail-percentile rule and the summary."""

import pytest

from bench.keepawake import REFERENCE_CHUNK_S, dilation
from bench.slices import (
    Slice, host_report, parse_cpu_line, setup_seconds, steal_share, summarise, tail_percentile,
)


#: The spinners' progress over a slice in which the VM ran at reference speed.
AT_REFERENCE = (1000, 1000 * REFERENCE_CHUNK_S)


def test_a_window_of_quiet_slices_is_not_noisy():
    report = host_report([0.0, 0.01, 0.03] * 10)
    assert (report["host.quiet_slices"], report["host.noisy"]) == (30, 0)
    assert report["host.steal_frac"] == pytest.approx(0.04 / 3)


def test_ten_quiet_slices_are_enough():
    report = host_report([0.0] * 10 + [0.2] * 10 + [0.31] * 10)
    assert (report["host.quiet_slices"], report["host.noisy"]) == (10, 0)


def test_fewer_than_ten_quiet_slices_flag_the_host_as_noisy():
    report = host_report([0.0] * 9 + [0.04] * 21)
    assert (report["host.quiet_slices"], report["host.noisy"]) == (9, 1)


def test_a_short_window_needs_half_of_its_slices_quiet():
    assert host_report([0.0, 0.2, 0.0, 0.2])["host.noisy"] == 0
    assert host_report([0.1, 0.2, 0.3, 0.0])["host.noisy"] == 1


def test_steal_share_is_the_steal_delta_over_all_deltas():
    before = parse_cpu_line("cpu  100 0 50 800 5 0 5 40 0 0")
    after = parse_cpu_line("cpu  150 0 70 880 5 0 5 90 0 0\n")
    assert steal_share(before, after) == pytest.approx(50 / 200)


def test_kernel_without_a_steal_column_reads_as_no_steal():
    assert steal_share((100, 0, 50, 800), (150, 0, 70, 880)) == 0.0
    assert steal_share((1,) * 10, (1,) * 10) == 0.0
    with pytest.raises(ValueError):
        parse_cpu_line("cpu0 1 2 3 4")


def test_p99_is_reported_when_ten_samples_lie_beyond_it():
    value, quantile = tail_percentile(list(range(2000)))
    assert value == 1979 and quantile == 0.99


def test_tail_percentile_is_lowered_until_ten_samples_lie_beyond_it():
    value, quantile = tail_percentile(list(range(500)))
    assert value == 489 and quantile == pytest.approx(0.98)
    assert sum(sample > value for sample in range(500)) == 10
    # Never below the median, however few samples there are.
    assert tail_percentile([1.0, 2.0, 3.0, 4.0]) == (3.0, 0.75)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_summary_is_taken_over_all_slices_as_measured():
    latency = [0.001] * 1000 + [0.005] * 400
    quiet = Slice(1.0, 1000, 1000, 0.5, 0.1, 0.0, AT_REFERENCE, ((0, 1000),))
    stolen = Slice(1.0, 400, 400, 0.5, 0.1, 0.3, AT_REFERENCE, ((1000, 1400),))
    summary = summarise([quiet, stolen, quiet], [latency])
    assert summary["ops_per_s"] == 1000  # the median slice
    assert summary["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["latency_samples"] == 2400  # the quiet slice's samples twice
    assert summary["cpu_us_per_op"] == pytest.approx(1e6 * 1.2 / 2400)
    assert summary["loadgen.self_us"] == pytest.approx(1e6 * 0.3 / 2400)
    assert summary["loadgen.cpu_frac"] == pytest.approx(0.2)
    assert (summary["host.quiet_slices"], summary["host.noisy"]) == (2, 0)
    assert summary["host.steal_frac"] == pytest.approx(0.1)


def test_times_are_divided_by_the_dilation_and_rates_multiplied():
    assert dilation(*AT_REFERENCE) == pytest.approx(1.0)
    assert dilation(0, 0.0) is None
    slow = (500, 500 * 1.25 * REFERENCE_CHUNK_S)  # a chunk cost 1.25x the reference
    slowed = Slice(1.0, 800, 800, 1.0, 0.25, 0.0, slow, ((0, 800),))
    summary = summarise([slowed], [[0.005] * 800])
    assert summary["host.dilation"] == pytest.approx(1.25)
    assert summary["ops_per_s"] == pytest.approx(1000)
    assert summary["latency_p50_ms"] == pytest.approx(4.0)
    assert summary["cpu_us_per_op"] == pytest.approx(1e6 * 0.75 / 1.25 / 800)
    assert summary["loadgen.self_us"] == pytest.approx(250)


def test_a_slice_without_a_clock_takes_the_window_s_dilation():
    clocked = Slice(1.0, 800, 800, 1.0, 0.2, 0.0, (500, 500 * 1.25 * REFERENCE_CHUNK_S), ((0, 800),))
    starved = clocked._replace(spin=(0, 0.0))
    summary = summarise([clocked, starved], [[0.005] * 800])
    assert summary["host.dilation"] == pytest.approx(1.25)
    # A window without any clock is reported as the wall clock measured it.
    unclocked = summarise([starved], [[0.005] * 800])
    assert unclocked["host.dilation"] == 1.0
    assert unclocked["latency_p50_ms"] == pytest.approx(5.0)


def test_set_ups_share_one_dilation_pooled_over_all_of_them():
    chunk = 1.25 * REFERENCE_CHUNK_S
    setups = [(0.5, (400, 400 * chunk)), (0.3, (0, 0.0)), (0.4, (3, 3 * 6 * chunk))]
    pooled = (400 + 18) * chunk / 403 / REFERENCE_CHUNK_S
    assert setup_seconds(setups) == pytest.approx(0.4 / pooled)
    assert setup_seconds([(0.3, (0, 0.0))]) == pytest.approx(0.3)  # no clock at all


def test_direct_generators_are_charged_their_calibrated_cost():
    one = Slice(1.0, 1000, 1000, 0.9, 0.5, 0.0, AT_REFERENCE, ((0, 1000),))
    summary = summarise([one], [[0.001] * 1000], harness_s=5e-6)
    assert summary["loadgen.self_us"] == pytest.approx(5.0)
    assert summary["cpu_us_per_op"] == pytest.approx(895)
