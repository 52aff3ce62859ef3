"""Nemesis experiment: one seeded oracle episode on a live cluster.

The episode (threaded by default, or process-per-replica with
``runtime="proc"``) interleaves randomized partitions, crashes,
recoveries, disk restarts and checkpoints against live load, then heals,
drains and runs the full oracle: linearizable probe history, converged
replicas, zero marker boundary violations.  Faults surface as latency,
never as ordering violations — the paper's multicast is reliable.  The
seed is printed with the episode so any failure is reproducible with one
command.
"""

import shutil
import tempfile

from repro.harness.nemesis import run_live_nemesis_episode
from repro.harness.tables import format_table

#: Live-cluster runtimes the episode can run against: ``threaded`` uses
#: in-process replica threads; ``proc`` spawns one OS process per replica
#: and drives faults through the TCP socket layer.
RUNTIMES = ("threaded", "proc")

#: The live episode's plan at smoke scale: fewer steps than the suite's
#: episodes, spaced for what a recovery costs on each runtime.
LIVE_EPISODE_PLAN = {
    "threaded": {"steps": 6, "mean_gap": 0.05},
    "proc": {"steps": 5, "mean_gap": 0.3},
}

#: What the experiment is expected to show (used in the output and tests).
EXPECTATIONS = {
    "partition": "a partitioned replica stalls its links but catches up "
                 "after the heal (partition = infinite delay, not loss)",
    "episodes": "randomized seeded episodes pass the linearizability, "
                "convergence and marker-boundary oracles",
}


def run_nemesis(seed=20260808, runtime="threaded"):
    """One seeded oracle episode on a live cluster of ``runtime``.

    ``runtime`` is ``threaded`` (default) or ``proc`` (one OS process per
    replica, faults injected at the socket layer, crashes are real
    SIGKILLs).
    """
    if runtime not in RUNTIMES:
        raise ValueError(
            f"unknown runtime {runtime!r}; expected one of {RUNTIMES}"
        )
    scratch = tempfile.mkdtemp(prefix="psmr-nemesis-")
    try:
        episode = run_live_nemesis_episode(
            seed=seed, runtime=runtime, store_dir=scratch,
            **LIVE_EPISODE_PLAN[runtime],
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    row = {
        "runtime": episode["runtime"],
        "seed": episode["seed"],
        "ok": episode["ok"],
        "linearizable": episode.get("linearizable"),
        "converged": episode.get("converged"),
        "probe_ops": episode["probe_operations"],
        "recoveries": len(episode["recovery_s"]),
    }
    summary = {
        "seed": seed,
        "runtime": runtime,
        f"{runtime}_episode_ok": episode["ok"],
        "reproduce": (
            f"python -m repro.cli nemesis --seed {seed} --runtime {runtime}"
        ),
    }
    text = "\n".join(
        [
            format_table(
                [row],
                columns=[
                    "runtime", "seed", "ok", "linearizable", "converged",
                    "probe_ops", "recoveries",
                ],
                title="Nemesis - seeded randomized episode (oracle: "
                      "linearizability + convergence + marker boundaries)",
            ),
            "",
            format_table(
                [{"metric": key, "value": value} for key, value in summary.items()],
                columns=["metric", "value"],
                title="Nemesis - summary",
            ),
        ]
    )
    failures = list(episode["failures"])
    if failures:
        text += (
            f"\nEPISODE FAILURES (reproduce with seed {seed}): "
            + "; ".join(failures)
        )
    return {
        "figure": "nemesis",
        "episodes": [row],
        "summary": summary,
        "failures": failures,
        "expectations": EXPECTATIONS,
        "text": text,
        f"{runtime}_episode": {
            k: v for k, v in episode.items() if k not in ("plan", "history")
        },
    }
