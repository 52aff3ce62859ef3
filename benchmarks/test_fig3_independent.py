"""Figure 3: performance of independent commands (read-only KV workload).

Paper result: P-SMR ~3.15x SMR, sP-SMR ~1.14x, no-rep ~1.22x, BDB lowest;
P-SMR's latency at peak is the highest of the replicated techniques.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_fig3_independent


def test_fig3_independent_commands(benchmark):
    result = benchmark.pedantic(
        run_fig3_independent,
        kwargs={"warmup": WARMUP, "duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig3", result["text"])
    rows = {row["technique"]: row for row in result["rows"]}

    # Shape checks against the paper's factors.
    assert rows["P-SMR"]["factor_vs_SMR"] > 2.5, "P-SMR should beat SMR by >2.5x"
    assert rows["sP-SMR"]["factor_vs_SMR"] > 1.0
    assert rows["no-rep"]["factor_vs_SMR"] > 1.0
    assert rows["BDB"]["factor_vs_SMR"] < 0.5, "lock-based server is the slowest"
    # The scheduler caps sP-SMR and no-rep well below P-SMR.
    assert rows["P-SMR"]["throughput_kcps"] > 2 * rows["sP-SMR"]["throughput_kcps"]
    # Latency ordering at peak throughput (section VII-C).
    assert rows["P-SMR"]["avg_latency_ms"] > rows["sP-SMR"]["avg_latency_ms"]
    assert rows["sP-SMR"]["avg_latency_ms"] > rows["SMR"]["avg_latency_ms"]
