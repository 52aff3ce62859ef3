"""Figure 4: performance of dependent commands (insert/delete workload).

Paper result: SMR is the fastest (no synchronisation overhead); P-SMR
reaches ~0.5x SMR, no-rep ~0.32x, sP-SMR ~0.28x and BDB ~0.12x.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_fig4_dependent


def test_fig4_dependent_commands(benchmark):
    result = benchmark.pedantic(
        run_fig4_dependent,
        kwargs={"warmup": WARMUP, "duration": DURATION},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig4", result["text"])
    rows = {row["technique"]: row for row in result["rows"]}

    # SMR wins when every command is dependent.
    for technique in ("P-SMR", "sP-SMR", "no-rep", "BDB"):
        assert rows[technique]["factor_vs_SMR"] < 1.0, technique
    # Relative ordering of the paper: SMR > P-SMR > no-rep/sP-SMR > BDB.
    assert rows["P-SMR"]["factor_vs_SMR"] > rows["sP-SMR"]["factor_vs_SMR"]
    assert rows["P-SMR"]["factor_vs_SMR"] > rows["BDB"]["factor_vs_SMR"]
    assert rows["sP-SMR"]["factor_vs_SMR"] > rows["BDB"]["factor_vs_SMR"]
    # P-SMR lands near the paper's 0.5x.
    assert 0.3 < rows["P-SMR"]["factor_vs_SMR"] < 0.7
