"""Unit tests for configuration, ids, and RNG helpers."""

import pytest

from repro.common import (
    ClusterConfig,
    ConfigurationError,
    IdGenerator,
    MulticastConfig,
    SeededRNG,
    WorkloadConfig,
    derive_seed,
    make_command_uid,
)
from repro.common.config import CostModelConfig


# ----------------------------------------------------------------------
# Ids
# ----------------------------------------------------------------------
def test_id_generator_monotonic_per_scope():
    gen = IdGenerator()
    assert [gen.next("a"), gen.next("a"), gen.next("a")] == [0, 1, 2]


def test_id_generator_scopes_are_independent():
    gen = IdGenerator()
    gen.next("a")
    assert gen.next("b") == 0


def test_make_command_uid_coerces_to_ints():
    assert make_command_uid("3", 7.0) == (3, 7)


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
def test_derive_seed_is_deterministic():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")


def test_derive_seed_varies_with_labels():
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_seeded_rng_reproducible():
    first = SeededRNG(5)
    second = SeededRNG(5)
    assert [first.randint(0, 100) for _ in range(10)] == [
        second.randint(0, 100) for _ in range(10)
    ]


def test_seeded_rng_children_differ_from_parent():
    parent = SeededRNG(5)
    child = parent.child("stream", 1)
    other = parent.child("stream", 2)
    assert child.seed != other.seed


def test_seeded_rng_choice_and_sample():
    rng = SeededRNG(9)
    population = list(range(20))
    assert rng.choice(population) in population
    sample = rng.sample(population, 5)
    assert len(sample) == 5
    assert set(sample) <= set(population)


# ----------------------------------------------------------------------
# MulticastConfig
# ----------------------------------------------------------------------
def test_multicast_config_defaults_match_paper():
    config = MulticastConfig()
    assert config.batch_max_bytes == 8 * 1024


def test_multicast_config_has_no_acceptor_count():
    # Ordering is a cost model of a stable-leader Paxos round; no acceptor
    # list exists to size.
    with pytest.raises(TypeError):
        MulticastConfig(acceptors_per_group=3)


def test_multicast_config_rejects_bad_merge_policy():
    with pytest.raises(ConfigurationError):
        MulticastConfig(merge_policy="magic").validate()


@pytest.mark.parametrize("field, value", [
    ("batch_max_bytes", 0),
    ("batch_max_commands", 0),
])
def test_multicast_config_rejects_nonpositive(field, value):
    config = MulticastConfig(**{field: value})
    with pytest.raises(ConfigurationError):
        config.validate()


# ----------------------------------------------------------------------
# CostModelConfig
# ----------------------------------------------------------------------
def test_contention_factor_is_one_for_single_thread():
    costs = CostModelConfig()
    assert costs.contention_factor(1) == 1.0


def test_contention_factor_grows_linearly():
    costs = CostModelConfig(contention_alpha=0.5)
    assert costs.contention_factor(3) == pytest.approx(2.0)


def test_compress_cost_scales_with_size():
    costs = CostModelConfig()
    assert costs.compress_cost(2048) == pytest.approx(2 * costs.compress_per_kb)


def test_decompress_cost_has_floor():
    costs = CostModelConfig()
    assert costs.decompress_cost(1) >= 0.1e-6


def test_compression_slower_than_decompression():
    """The paper's explanation for read/write latency asymmetry in NetFS."""
    costs = CostModelConfig()
    assert costs.compress_cost(1024) > costs.decompress_cost(1024)


# ----------------------------------------------------------------------
# ClusterConfig
# ----------------------------------------------------------------------
def test_cluster_config_validate_returns_self():
    config = ClusterConfig()
    assert config.validate() is config


@pytest.mark.parametrize("field, value", [
    ("num_replicas", 0),
    ("mpl", 0),
    ("num_clients", 0),
    ("client_window", 0),
])
def test_cluster_config_rejects_nonpositive(field, value):
    config = ClusterConfig(**{field: value})
    with pytest.raises(ConfigurationError):
        config.validate()


# ----------------------------------------------------------------------
# WorkloadConfig
# ----------------------------------------------------------------------
def test_workload_config_mix_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(mix={"read": 0.5}).validate()


def test_workload_config_rejects_unknown_distribution():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(distribution="pareto").validate()


def test_workload_config_defaults_are_valid():
    assert WorkloadConfig().validate() is not None
