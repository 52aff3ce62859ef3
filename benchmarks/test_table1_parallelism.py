"""Table I: degrees of parallelism in SMR, sP-SMR and P-SMR."""

from conftest import assert_matches_golden

from repro.harness.experiments import run_table1


def test_table1_degrees_of_parallelism(benchmark):
    result = benchmark.pedantic(run_table1, kwargs={"threads": 4}, rounds=1, iterations=1)
    print("\n" + result["text"])
    assert_matches_golden("table1", result["text"])
    assert result["matches_paper"] is True
    by_technique = {row["technique"]: row for row in result["rows"]}
    assert by_technique["SMR"]["delivery"] == "sequential"
    assert by_technique["SMR"]["execution"] == "sequential"
    assert by_technique["sP-SMR"]["delivery"] == "sequential"
    assert by_technique["sP-SMR"]["execution"] == "parallel"
    assert by_technique["P-SMR"]["delivery"] == "parallel"
    assert by_technique["P-SMR"]["execution"] == "parallel"
