"""Ablation: deterministic merge policy (timestamp vs round-robin).

The default timestamp merge never throttles a busy stream; the Multi-Ring
Paxos style round-robin merge couples every stream's delivery rate to the
slowest (skip-rate-bound) stream, which costs throughput when some streams
are idle.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_ablation_merge_policy


def test_ablation_merge_policy(benchmark):
    result = benchmark.pedantic(
        run_ablation_merge_policy,
        kwargs={"warmup": WARMUP, "duration": DURATION, "threads": 4},
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("ablation-merge", result["text"])
    rows = {row["merge_policy"]: row for row in result["rows"]}
    assert rows["timestamp"]["throughput_kcps"] > 0
    assert rows["round_robin"]["throughput_kcps"] > 0
    # The timestamp merge should not be slower than round robin.
    assert rows["timestamp"]["throughput_kcps"] >= rows["round_robin"]["throughput_kcps"]
