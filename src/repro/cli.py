"""Command-line interface for running the reproduction experiments.

Examples::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli fig3 --duration 0.05
    python -m repro.cli fig6 --duration 0.03 --seed 7
    python -m repro.cli nemesis --runtime proc --seed 7
    python -m repro.cli all --duration 0.03

Each sub-command runs the corresponding experiment driver from
:mod:`repro.harness.experiments` and prints the paper-style table.
Experiments with a live-cluster phase accept ``--runtime`` to pick the
cluster flavour: ``threaded`` (in-process threads, default), ``proc``
(one OS process per replica over TCP).
"""

import argparse
import sys

from repro.harness.experiments import (
    run_ablation_batch_size,
    run_ablation_cg_granularity,
    run_ablation_merge_policy,
    run_durable_recovery,
    run_fig3_independent,
    run_fig4_dependent,
    run_fig5_scalability,
    run_fig6_mixed,
    run_fig7_skew,
    run_fig8_netfs,
    run_nemesis,
    run_shard_rebalance,
    run_table1,
)

#: Live-cluster runtimes accepted by ``--runtime`` (experiments without a
#: live phase ignore the flag).
RUNTIMES = ("threaded", "proc")

#: Experiment name -> (driver, accepts timing kwargs, accepts runtime kwarg).
EXPERIMENTS = {
    "table1": (run_table1, False, False),
    "fig3": (run_fig3_independent, True, False),
    "fig4": (run_fig4_dependent, True, False),
    "fig5": (run_fig5_scalability, True, False),
    "fig6": (run_fig6_mixed, True, False),
    "fig7": (run_fig7_skew, False, False),
    "fig8": (run_fig8_netfs, True, False),
    "durable-recovery": (run_durable_recovery, True, False),
    "nemesis": (run_nemesis, False, True),
    "shard-rebalance": (run_shard_rebalance, True, False),
    "ablation-merge": (run_ablation_merge_policy, True, False),
    "ablation-cg": (run_ablation_cg_granularity, True, False),
    "ablation-batch": (run_ablation_batch_size, True, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Rethinking State-Machine "
                    "Replication for Parallelism' (ICDCS 2014).",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all", "list"],
                        help="which table/figure to regenerate ('list' to enumerate)")
    parser.add_argument("--warmup", type=float, default=0.015,
                        help="simulated warmup before measuring, in seconds")
    parser.add_argument("--duration", type=float, default=0.04,
                        help="simulated measurement window, in seconds")
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument("--runtime", choices=RUNTIMES, default="threaded",
                        help="live-cluster runtime for experiments with a "
                             "live phase (threaded: in-process threads; "
                             "proc: one OS process per replica over TCP)")
    return parser


def run_experiment(name, warmup, duration, seed, stream=sys.stdout,
                   runtime="threaded"):
    """Run one named experiment and print its table; return the result dict."""
    driver, takes_timing, takes_runtime = EXPERIMENTS[name]
    kwargs = {"runtime": runtime} if takes_runtime else {}
    if takes_timing:
        result = driver(warmup=warmup, duration=duration, seed=seed, **kwargs)
    elif name == "table1":
        result = driver()
    else:
        result = driver(seed=seed, **kwargs)
    print(result["text"], file=stream)
    print("", file=stream)
    return result


def main(argv=None, stream=sys.stdout):
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name, file=stream)
        print("runtimes: " + " ".join(RUNTIMES), file=stream)
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results = [
        run_experiment(name, args.warmup, args.duration, args.seed,
                       stream=stream, runtime=args.runtime)
        for name in names
    ]
    # An experiment whose oracle failed says so in ``failures``; its text
    # already carries them, the exit status is what CI reads.
    return 1 if any(result.get("failures") for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
