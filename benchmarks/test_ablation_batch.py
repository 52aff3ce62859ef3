"""Ablation: multicast batch size (the paper's prototype uses 8 KB batches).

Small batches pay a Paxos round per handful of commands and cap the
ordering layer's throughput; the paper's 8 KB batches amortise that cost.
"""

from conftest import DURATION, WARMUP, assert_matches_golden

from repro.harness.experiments import run_ablation_batch_size


def test_ablation_batch_size(benchmark):
    result = benchmark.pedantic(
        run_ablation_batch_size,
        kwargs={
            "warmup": WARMUP,
            "duration": DURATION,
            "sizes": (64, 8 * 1024, 64 * 1024),
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + result["text"])
    assert_matches_golden("ablation-batch", result["text"])
    rows = {row["batch_bytes"]: row for row in result["rows"]}
    # Tiny batches cap the ordering layer below the replica's execution rate.
    assert rows[8 * 1024]["throughput_kcps"] > 1.1 * rows[64]["throughput_kcps"]
    # Very large batches should not catastrophically hurt throughput either.
    assert rows[64 * 1024]["throughput_kcps"] > 0.8 * rows[8 * 1024]["throughput_kcps"]
