"""Ablation: C-G granularity (per-key mapping vs the coarse mapping).

Paper section IV-C presents both: the coarse C-G sends every state-modifying
command to all groups; the per-key C-G assigns commands on the same key to
the same group.  Under a 50% update workload the coarse mapping forfeits
almost all of P-SMR's concurrency.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_ablation_cg_granularity


def test_ablation_cg_granularity(benchmark):
    result = benchmark.pedantic(
        run_ablation_cg_granularity,
        kwargs={"warmup": WARMUP, "duration": DURATION, "threads": 8},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("ablation-cg", result["text"])
    rows = {row["cg"]: row for row in result["rows"]}
    fine = rows["per-key C-G"]["throughput_kcps"]
    coarse = rows["coarse C-G"]["throughput_kcps"]
    assert fine > 2.0 * coarse, "per-key C-G should unlock far more concurrency"
