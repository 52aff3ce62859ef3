"""Figure 3: performance of independent commands (read-only key-value workload).

Peak-throughput configuration of the paper: 8 threads for P-SMR, 2 for
sP-SMR and no-rep, 1 for SMR and 6 for BDB.  Reported: throughput (Kcps),
CPU usage, average latency and the latency CDF.
"""

from repro.harness.runner import DEFAULT_DURATION, DEFAULT_WARMUP, run_peak_comparison
from repro.workload import READ_ONLY_MIX

#: Thread counts of the paper's peak-throughput configuration.
FIG3_THREADS = {"no-rep": 2, "SMR": 1, "sP-SMR": 2, "P-SMR": 8, "BDB": 6}

#: Throughput relative to SMR reported by the paper (Figure 3, top-left).
PAPER_FACTORS = {"no-rep": 1.22, "SMR": 1.0, "sP-SMR": 1.14, "P-SMR": 3.15, "BDB": 0.2}


def run_fig3_independent(warmup=DEFAULT_WARMUP, duration=DEFAULT_DURATION, seed=1,
                         techniques=None):
    """Run the independent-commands comparison; return rows plus paper factors."""
    return run_peak_comparison(
        "3",
        "Figure 3 - independent commands (read-only workload)",
        FIG3_THREADS,
        PAPER_FACTORS,
        READ_ONLY_MIX,
        warmup,
        duration,
        seed,
        techniques,
    )
