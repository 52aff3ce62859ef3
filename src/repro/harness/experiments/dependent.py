"""Figure 4: performance of dependent commands (insert/delete-only workload).

The paper obtains these numbers with 1 thread for every technique except
BDB (4 threads): with dependent-only commands extra threads only add
synchronisation overhead.
"""

from repro.harness.runner import DEFAULT_DURATION, DEFAULT_WARMUP, run_peak_comparison
from repro.workload import DEPENDENT_ONLY_MIX

#: Thread counts of the paper's configuration for Figure 4.
FIG4_THREADS = {"no-rep": 1, "SMR": 1, "sP-SMR": 1, "P-SMR": 1, "BDB": 4}

#: Throughput relative to SMR reported by the paper (Figure 4, top-left).
PAPER_FACTORS = {"no-rep": 0.32, "SMR": 1.0, "sP-SMR": 0.28, "P-SMR": 0.5, "BDB": 0.12}


def run_fig4_dependent(warmup=DEFAULT_WARMUP, duration=DEFAULT_DURATION, seed=1,
                       techniques=None):
    """Run the dependent-commands comparison; return rows plus paper factors."""
    return run_peak_comparison(
        "4",
        "Figure 4 - dependent commands (insert/delete workload)",
        FIG4_THREADS,
        PAPER_FACTORS,
        DEPENDENT_ONLY_MIX,
        warmup,
        duration,
        seed,
        techniques,
    )
