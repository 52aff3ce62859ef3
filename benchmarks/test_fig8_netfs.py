"""Figure 8: NetFS read and write performance.

Paper result: SMR caps at ~100 Kcps (reads) / ~110 Kcps (writes); sP-SMR
improves only ~1.1-1.2x because the scheduler saturates; P-SMR reaches
~3x for both reads and writes.  Read latency exceeds write latency because
compressing the 1 KB response costs more than decompressing the request.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_fig8_netfs


def test_fig8_netfs(benchmark):
    result = benchmark.pedantic(
        run_fig8_netfs,
        kwargs={"warmup": WARMUP, "duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig8", result["text"])
    rows = {(row["operation"], row["technique"]): row for row in result["rows"]}

    for operation in ("read", "write"):
        psmr = rows[(operation, "P-SMR")]
        spsmr = rows[(operation, "sP-SMR")]
        assert psmr["factor_vs_SMR"] > 2.5, f"P-SMR should reach ~3x for {operation}s"
        assert 0.9 < spsmr["factor_vs_SMR"] < 1.6, "scheduler limits sP-SMR to ~1.1-1.2x"
        assert psmr["throughput_kcps"] > 2 * spsmr["throughput_kcps"]

    # Reads are more expensive than writes for the single-threaded baseline
    # (compression asymmetry), hence lower throughput.
    assert rows[("read", "SMR")]["throughput_kcps"] < rows[("write", "SMR")]["throughput_kcps"]
    # And read latency is higher than write latency for P-SMR.
    assert rows[("read", "P-SMR")]["avg_latency_ms"] > rows[("write", "P-SMR")]["avg_latency_ms"]
