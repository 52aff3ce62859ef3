"""Figure 7: skewed workloads (uniform vs Zipfian keys, 50% updates).

Paper result: with uniform keys P-SMR keeps scaling with threads; with a
Zipfian distribution its throughput is bounded by the most loaded multicast
group.  sP-SMR is bounded by its scheduler under both distributions (and is
slightly *faster* with the Zipfian distribution at low thread counts thanks
to caching of hot keys).  P-SMR scales better than sP-SMR in every case.
"""

from conftest import assert_matches_golden

from repro.harness.experiments import run_fig7_skew

THREADS = (1, 2, 4, 8)


def test_fig7_skewed_workloads(benchmark):
    # The experiment's own (longer) warmup is kept: the hot-group backlog
    # must reach equilibrium before measuring, see the driver's docstring.
    result = benchmark.pedantic(
        run_fig7_skew,
        kwargs={"thread_counts": THREADS},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("fig7", result["text"])
    series = result["series"]

    def kcps(technique, distribution):
        return [point[1] for point in series[(technique, distribution)]]

    psmr_uniform = kcps("P-SMR", "uniform")
    psmr_zipf = kcps("P-SMR", "zipfian")
    spsmr_uniform = kcps("sP-SMR", "uniform")
    spsmr_zipf = kcps("sP-SMR", "zipfian")

    # P-SMR scales with threads under the uniform distribution.
    assert psmr_uniform[-1] > 2.2 * psmr_uniform[0]
    # Skew costs P-SMR throughput at high thread counts (most loaded group).
    assert psmr_zipf[-1] < psmr_uniform[-1]
    # ... but P-SMR under skew still beats sP-SMR by a wide margin.
    assert psmr_zipf[-1] > 1.5 * spsmr_zipf[-1]
    # sP-SMR is scheduler-bound: adding threads beyond 2 does not help.
    assert max(spsmr_uniform) < 1.6 * spsmr_uniform[0]
    # The caching quirk: Zipfian sP-SMR is at least as fast as uniform at 1 thread.
    assert spsmr_zipf[0] >= spsmr_uniform[0] * 0.98
    # Per-thread normalised throughput: P-SMR scales better than sP-SMR under
    # both distributions (the paper's closing observation for this figure).
    for distribution in ("uniform", "zipfian"):
        psmr_norm = series[("P-SMR", distribution)][-1][2]
        spsmr_norm = series[("sP-SMR", distribution)][-1][2]
        assert psmr_norm > spsmr_norm
