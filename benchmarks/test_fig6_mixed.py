"""Figure 6: mixed workloads and P-SMR's breakeven point.

Paper result: P-SMR (8 threads) stays ahead of SMR up to roughly 10% of
dependent commands; its throughput (and latency) fall as the percentage of
dependent commands grows.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_fig6_mixed


def test_fig6_mixed_workloads(benchmark):
    result = benchmark.pedantic(
        run_fig6_mixed,
        kwargs={
            "warmup": WARMUP,
            "duration": DURATION,
            "percentages": (0.001, 0.01, 0.1, 1.0, 5.0, 10.0, 20.0),
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig6", result["text"])
    rows = result["rows"]
    by_percent = {row["dependent_percent"]: row for row in rows}

    # With almost no dependent commands P-SMR is far ahead of SMR.
    assert by_percent[0.001]["psmr_kcps"] > 2.5 * by_percent[0.001]["smr_kcps"]
    # P-SMR throughput decreases as the dependent percentage grows.
    kcps = [row["psmr_kcps"] for row in rows]
    assert all(later <= earlier * 1.02 for earlier, later in zip(kcps, kcps[1:]))
    # The breakeven point falls in the paper's ballpark (a few percent .. ~20%).
    breakeven = result["measured_breakeven_percent"]
    assert breakeven is not None and 1.0 <= breakeven <= 20.0
    # By 20% dependent commands P-SMR has fallen below SMR.
    assert not by_percent[20.0]["psmr_ahead"]
