"""Figure 5: throughput versus the number of worker threads.

Paper result: with independent commands only P-SMR keeps improving as
threads are added (the scheduler caps sP-SMR/no-rep, locking caps BDB);
with dependent commands every technique except BDB degrades as threads are
added.
"""

from conftest import WARMUP

from conftest import assert_matches_golden

from repro.harness.experiments import run_fig5_scalability

THREADS = (1, 2, 4, 8)


def test_fig5_scalability(benchmark):
    result = benchmark.pedantic(
        run_fig5_scalability,
        kwargs={
            "warmup": WARMUP,
            "duration": 0.02,
            "thread_counts": THREADS,
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig5", result["text"])
    series = result["series"]

    def throughputs(workload, technique):
        return [kcps for _threads, kcps, _norm in series[(workload, technique)]]

    # Independent workload: P-SMR grows monotonically and ends >2.5x its
    # single-thread rate; the others gain little or lose after 2 threads.
    psmr = throughputs("independent", "P-SMR")
    assert psmr[-1] > 2.5 * psmr[0]
    assert all(later >= earlier * 0.98 for earlier, later in zip(psmr, psmr[1:]))
    spsmr = throughputs("independent", "sP-SMR")
    assert spsmr[-1] < 1.6 * spsmr[0], "scheduler caps sP-SMR scaling"
    norep = throughputs("independent", "no-rep")
    assert norep[-1] < 1.6 * norep[0]

    # Dependent workload: P-SMR, sP-SMR and no-rep all degrade with threads.
    for technique in ("P-SMR", "sP-SMR", "no-rep"):
        dependent = throughputs("dependent", technique)
        assert dependent[-1] < dependent[0], technique

    # Per-thread normalised throughput of P-SMR stays the highest at 8 threads.
    norm_at_8 = {
        technique: series[("independent", technique)][-1][2]
        for technique in ("P-SMR", "sP-SMR", "no-rep")
    }
    assert norm_at_8["P-SMR"] == max(norm_at_8.values())
