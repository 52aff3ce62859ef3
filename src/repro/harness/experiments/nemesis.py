"""Nemesis experiment: throughput/latency under network faults + oracle episodes.

Two parts:

* a **fault-class sweep** runs the simulated P-SMR system once per fault
  class (clean baseline, message drop, link delay, duplicate+reorder,
  partition window, replica crash) and reports throughput and latency
  degradation relative to the clean run, plus the measured recovery time
  where the class has one (partition: heal-to-drain; crash: recovery
  marker to rejoin).  Faults surface as latency, never as ordering
  violations — the paper's multicast is reliable — so degradation is the
  interesting number;
* two **seeded nemesis episodes** (one simulated, one live — threaded by
  default, or process-per-replica with ``runtime="proc"``) interleave
  randomized partitions, crashes, recoveries, disk restarts and
  compactions against live load, then heal, drain and run the full oracle:
  linearizable probe history, converged replicas, zero marker boundary
  violations.  The seed is printed with every episode so any failure is
  reproducible with one command.
"""

import shutil
import tempfile

from repro.common.faults import FaultPlane
from repro.harness.nemesis import run_live_nemesis_episode, run_sim_nemesis_episode
from repro.harness.runner import DEFAULT_WARMUP, build_kv_system
from repro.harness.tables import format_table
from repro.workload import mixed_workload

#: Live-cluster runtimes the episode phase can run against.  ``sim``
#: skips the live episode (sweep + simulated episode only); ``threaded``
#: uses in-process replica threads; ``proc`` spawns one OS process per
#: replica and drives faults through the TCP socket layer.
RUNTIMES = ("threaded", "proc", "sim")

#: The live episode's plan at smoke scale: fewer steps than the suite's
#: episodes, spaced for what a recovery costs on each runtime.
LIVE_EPISODE_PLAN = {
    "threaded": {"steps": 6, "mean_gap": 0.05},
    "proc": {"steps": 5, "mean_gap": 0.3},
}

#: What the experiment is expected to show (used in the output and tests).
EXPECTATIONS = {
    "degradation": "faults cost throughput and latency, never correctness: "
                   "every arm converges and drains after healing",
    "partition": "a partitioned replica stalls its links but catches up "
                 "after the heal (partition = infinite delay, not loss)",
    "episodes": "randomized seeded episodes pass the linearizability, "
                "convergence and marker-boundary oracles in both runtimes",
}

#: Fault classes swept by the experiment.  Delays are in virtual seconds
#: (the sim's command service times are ~microseconds).
FAULT_CLASSES = (
    ("baseline", {}),
    ("drop", {"drop": 0.2}),
    ("delay", {"delay": 0.5, "delay_range": (0.0002, 0.002)}),
    ("dup+reorder", {"duplicate": 0.3, "reorder": 0.3, "reorder_window": 0.001}),
    ("partition", {}),
    ("crash", {}),
)


def _sweep_arm(name, faults, warmup, duration, seed, threads=3):
    """Run one fault class; return throughput, latency and recovery time."""
    from repro.replication.base import call_after

    plane = FaultPlane(
        seed=seed, retransmit_backoff=0.001, record_schedule=False
    )
    if faults:
        plane.set_link(**faults)
    system = build_kv_system(
        "P-SMR",
        threads,
        mix=mixed_workload(0.05),
        num_clients=8,
        key_space=1000,
        execute_state=True,
        initial_keys=64,
        seed=seed,
        fault_plane=plane,
        num_replicas=3,
    )
    window = (warmup + 0.25 * duration, warmup + 0.6 * duration)
    recovery_s = None
    if name == "partition":
        call_after(system.env, window[0], lambda: plane.isolate("replica2"))
        call_after(system.env, window[1], plane.heal)
    elif name == "crash":
        call_after(system.env, window[0], lambda: system.crash_replica(2))
        call_after(system.env, window[1], lambda: system.recover_replica(2))
    result = system.run(warmup=warmup, duration=duration)
    plane.heal()
    healed_at = system.env.now
    outstanding = system.quiesce(limit=2.0)
    if name == "partition":
        # Recovery = heal-to-drain: virtual time for the parked links to flush.
        recovery_s = system.env.now - healed_at
    elif name == "crash":
        done = [r for r in system.recoveries if r.done and r.completed_at is not None]
        if done:
            recovery_s = done[-1].completed_at - done[-1].started_at
    states = [
        system.replica_state(r).snapshot() for r in system.live_replica_ids()
    ]
    return {
        "fault": name,
        "throughput_kcps": result.throughput_kcps,
        "avg_latency_ms": result.avg_latency_ms,
        "recovery_s": recovery_s,
        "outstanding": outstanding,
        "converged": bool(states) and all(s == states[0] for s in states),
    }


def run_nemesis(warmup=DEFAULT_WARMUP, duration=0.04, seed=20260808,
                runtime="threaded"):
    """Fault-class degradation sweep + seeded oracle episodes.

    ``runtime`` selects the live cluster the second episode runs against:
    ``threaded`` (default), ``proc`` (one OS process per replica, faults
    injected at the socket layer, crashes are real SIGKILLs) or ``sim``
    (no live episode; sweep + simulated episode only).
    """
    if runtime not in RUNTIMES:
        raise ValueError(
            f"unknown runtime {runtime!r}; expected one of {RUNTIMES}"
        )
    rows = []
    baseline = None
    for name, faults in FAULT_CLASSES:
        arm = _sweep_arm(name, faults, warmup, duration, seed)
        if name == "baseline":
            baseline = arm
        ratio = arm["throughput_kcps"] / max(baseline["throughput_kcps"], 1e-9)
        rows.append(
            {
                "fault": name,
                "throughput_kcps": round(arm["throughput_kcps"], 1),
                "degradation_pct": round(100.0 * (1.0 - ratio), 1),
                "avg_latency_ms": round(arm["avg_latency_ms"], 4),
                "recovery_ms": (
                    round(arm["recovery_s"] * 1000.0, 3)
                    if arm["recovery_s"] is not None
                    else "-"
                ),
                "converged": arm["converged"],
            }
        )
    sim_episode = run_sim_nemesis_episode(
        seed=seed, duration=max(duration, 0.05), record_schedule=False
    )
    live_episode = None
    if runtime != "sim":
        scratch = tempfile.mkdtemp(prefix="psmr-nemesis-")
        try:
            live_episode = run_live_nemesis_episode(
                seed=seed, runtime=runtime, store_dir=scratch,
                **LIVE_EPISODE_PLAN[runtime],
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    episodes = []
    for episode in filter(None, (sim_episode, live_episode)):
        episodes.append(
            {
                "runtime": episode["runtime"],
                "seed": episode["seed"],
                "ok": episode["ok"],
                "linearizable": episode.get("linearizable"),
                "converged": episode.get("converged"),
                "probe_ops": episode["probe_operations"],
                "recoveries": len(episode["recovery_s"]),
            }
        )
    summary = {
        "seed": seed,
        "runtime": runtime,
        "worst_degradation_pct": max(row["degradation_pct"] for row in rows),
        "all_arms_converged": all(row["converged"] for row in rows),
        "sim_episode_ok": sim_episode["ok"],
        "reproduce": (
            f"python -m repro.cli nemesis --seed {seed} --runtime {runtime}"
        ),
    }
    if live_episode is not None:
        summary[f"{runtime}_episode_ok"] = live_episode["ok"]
    text = "\n".join(
        [
            format_table(
                rows,
                columns=[
                    "fault", "throughput_kcps", "degradation_pct",
                    "avg_latency_ms", "recovery_ms", "converged",
                ],
                title=(
                    "Nemesis - throughput/latency degradation by fault class "
                    "(P-SMR, 3 replicas, sim runtime)"
                ),
            ),
            "",
            format_table(
                episodes,
                columns=[
                    "runtime", "seed", "ok", "linearizable", "converged",
                    "probe_ops", "recoveries",
                ],
                title="Nemesis - seeded randomized episodes (oracle: "
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
    failures = list(sim_episode["failures"])
    if live_episode is not None:
        failures += live_episode["failures"]
    if failures:
        text += (
            f"\nEPISODE FAILURES (reproduce with seed {seed}): "
            + "; ".join(failures)
        )
    result = {
        "figure": "nemesis",
        "rows": rows,
        "episodes": episodes,
        "sim_episode": {k: v for k, v in sim_episode.items() if k != "plan"},
        "summary": summary,
        "failures": failures,
        "expectations": EXPECTATIONS,
        "text": text,
    }
    if live_episode is not None:
        result[f"{runtime}_episode"] = {
            k: v for k, v in live_episode.items() if k not in ("plan", "history")
        }
    return result
