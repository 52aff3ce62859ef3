"""A/A noise check: the whole suite twice on the working tree.

    python3 bench/aa.py [--runs N] [--seed S] [--seconds T]

Prints, per workload and end-to-end metric, both sets' medians, their
ratio and the bound declared in ``BENCHMARK.json``; with ``--runs`` above
1 also each set's spread (interquartile range over median, as the driver
takes it).  Exits non-zero if the two sets of runs of the same code
disagree by more than a bound, or a spread exceeds it (``setup_s``'s
spread is not gated) — then the benchmark, not the code, has to change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    """One untraced run in its own process; its end-to-end metric values."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT_DIR, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT_DIR,
    )
    if done.returncode:
        sys.exit(f"bench.aa: {workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per set, each on its own seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in spec["workloads"]]
    sets = [
        {
            workload: [
                run_once(workload, args.seed + run, args.seconds) for run in range(args.runs)
            ]
            for workload in workloads
        }
        for _ in range(2)
    ]
    breaches = 0
    print(f"{'workload':13s} {'metric':15s} {'A':>11s} {'B':>11s} {'worse by':>9s} "
          f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in runs[workload]] for runs in sets)
            a, b = statistics.median(first), statistics.median(second)
            apart = max(a / b, b / a) - 1
            spreads = (spread(first), spread(second))
            breach = apart > bound or (name != "setup_s" and max(spreads) > bound)
            breaches += breach
            print(f"{workload:13s} {name:15s} {a:11.4f} {b:11.4f} {apart:9.3f} "
                  f"{spreads[0]:9.3f} {spreads[1]:9.3f} {bound:6.2f}{'  BREACH' if breach else ''}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
