"""Integration tests for the per-figure experiment drivers (tiny scale)."""

import pytest

from repro.harness.experiments import (
    run_ablation_batch_size,
    run_ablation_cg_granularity,
    run_ablation_merge_policy,
    run_fig3_independent,
    run_fig4_dependent,
    run_fig5_scalability,
    run_fig6_mixed,
    run_fig7_skew,
    run_fig8_netfs,
    run_nemesis,
    run_table1,
)

TINY = dict(warmup=0.004, duration=0.012)


def test_table1_matches_paper():
    result = run_table1(threads=2)
    assert result["matches_paper"] is True
    assert {row["technique"] for row in result["rows"]} == {"SMR", "sP-SMR", "P-SMR"}
    assert "Table I" in result["text"]


def test_fig3_structure_and_ordering():
    result = run_fig3_independent(techniques=["SMR", "P-SMR"], **TINY)
    rows = {row["technique"]: row for row in result["rows"]}
    assert rows["P-SMR"]["factor_vs_SMR"] > 1.5
    assert rows["SMR"]["paper_factor"] == 1.0
    assert "Figure 3" in result["text"]


def test_fig4_structure_and_ordering():
    result = run_fig4_dependent(techniques=["SMR", "P-SMR"], **TINY)
    rows = {row["technique"]: row for row in result["rows"]}
    assert rows["P-SMR"]["factor_vs_SMR"] < 1.0
    assert "Figure 4" in result["text"]


def test_fig5_series_structure():
    result = run_fig5_scalability(
        techniques=("P-SMR",), thread_counts=(1, 2), workloads=("independent",), **TINY
    )
    series = result["series"][("independent", "P-SMR")]
    assert [threads for threads, _thr, _norm in series] == [1, 2]
    assert series[0][2] == pytest.approx(1.0)


def test_fig6_reports_breakeven():
    result = run_fig6_mixed(percentages=(0.01, 10.0), psmr_threads=4, **TINY)
    assert len(result["rows"]) == 2
    assert result["paper_breakeven_percent"] == 10.0
    assert result["rows"][0]["psmr_ahead"] in (True, False)


def test_fig7_covers_both_distributions():
    result = run_fig7_skew(
        techniques=("P-SMR",), thread_counts=(1, 2), distributions=("uniform", "zipfian"), **TINY
    )
    distributions = {row["distribution"] for row in result["rows"]}
    assert distributions == {"uniform", "zipfian"}


def test_fig8_reads_and_writes():
    result = run_fig8_netfs(techniques=["SMR", "P-SMR"], **TINY)
    operations = {row["operation"] for row in result["rows"]}
    assert operations == {"read", "write"}
    psmr_read = next(
        row for row in result["rows"]
        if row["technique"] == "P-SMR" and row["operation"] == "read"
    )
    assert psmr_read["factor_vs_SMR"] > 1.5


def test_nemesis_experiment_smoke():
    result = run_nemesis(seed=3)
    # The seeded oracle episode passes, and the seed is printed for
    # one-command reproduction.
    assert result["summary"]["threaded_episode_ok"] is True
    assert [row["runtime"] for row in result["episodes"]] == ["threaded"]
    assert "--seed 3" in result["summary"]["reproduce"]
    assert "seeded randomized episode" in result["text"]


def test_ablation_drivers_return_rows():
    merge = run_ablation_merge_policy(threads=2, **TINY)
    assert {row["merge_policy"] for row in merge["rows"]} == {"timestamp", "round_robin"}
    cg = run_ablation_cg_granularity(threads=2, **TINY)
    assert len(cg["rows"]) == 2
    batch = run_ablation_batch_size(threads=2, sizes=(1024, 8192), **TINY)
    assert [row["batch_bytes"] for row in batch["rows"]] == [1024, 8192]
