"""Per-figure experiment drivers (paper section VII).

Each module exposes a single ``run_*`` function returning a dict with the
measured rows, the paper's reference values and a formatted table.
"""

from repro.harness.experiments.table1 import run_table1
from repro.harness.experiments.independent import run_fig3_independent
from repro.harness.experiments.dependent import run_fig4_dependent
from repro.harness.experiments.scalability import run_fig5_scalability
from repro.harness.experiments.mixed import run_fig6_mixed
from repro.harness.experiments.skew import run_fig7_skew
from repro.harness.experiments.netfs import run_fig8_netfs
from repro.harness.experiments.durable import run_durable_recovery
from repro.harness.experiments.nemesis import run_nemesis
from repro.harness.experiments.shard import run_shard_rebalance
from repro.harness.experiments.ablations import (
    run_ablation_merge_policy,
    run_ablation_cg_granularity,
    run_ablation_batch_size,
)

__all__ = [
    "run_table1",
    "run_fig3_independent",
    "run_fig4_dependent",
    "run_fig5_scalability",
    "run_fig6_mixed",
    "run_fig7_skew",
    "run_fig8_netfs",
    "run_durable_recovery",
    "run_nemesis",
    "run_shard_rebalance",
    "run_ablation_merge_policy",
    "run_ablation_cg_granularity",
    "run_ablation_batch_size",
]
