"""Frontend-under-nemesis: faults surface as latency or 503, never wrong data.

One seeded fault episode (partitions, crashes, recoveries, checkpoints)
where every probe travels through the full HTTP edge.  The oracle is the
same as the runtime-level nemesis suite — drained multicast, converged
replicas, linearizable history — plus an HTTP-specific clause: the only
statuses a client may ever see are 200/404/409 (model results), 429
(shed before submission) and 503 (indeterminate timeout).  Anything else
means a fault leaked out as a wrong answer.
"""

from repro.common.faults import Nemesis
from repro.harness.nemesis import (
    FRONTEND,
    FRONTEND_KINDS,
    assert_episode_ok,
    run_frontend_nemesis_episode,
)

ALLOWED_STATUSES = {200, 404, 409, 429, 503}


def test_frontend_episode_seed_11_is_linearizable():
    report = run_frontend_nemesis_episode(seed=11)
    assert_episode_ok(report)
    assert report["reproduce"] == "run_frontend_nemesis_episode(seed=11)"
    replay = Nemesis(11, FRONTEND["num_replicas"], steps=FRONTEND["steps"],
                     mean_gap=FRONTEND["mean_gap"], kinds=FRONTEND_KINDS)
    assert report["plan"] == [op.describe() for op in replay.plan]
    assert report["linearizable"] is True
    assert report["converged"] is True
    assert report["drained"] is True
    assert not report["bad_statuses"]
    assert set(report["status_counts"]) <= ALLOWED_STATUSES
    # The plan actually exercised faults (seed 11 includes crash+partition).
    # describe() format: "[step] t+0.000s <kind> replicaN"
    kinds = {entry["op"].split()[2] for entry in report["applied"]}
    assert "crash" in kinds or "partition" in kinds
    # Probes made it into the history and were all accounted for.
    assert report["probe_operations"] > 0
    assert not report["probe_errors"]
