"""Shared fixtures for the test suite."""

import threading

import pytest

from repro.common.config import ClusterConfig, CostModelConfig, MulticastConfig
from repro.sim import Environment


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def costs():
    """Default cost model."""
    return CostModelConfig()


@pytest.fixture
def multicast_config():
    return MulticastConfig()


@pytest.fixture
def small_cluster_config():
    """A small, fast cluster configuration for integration tests."""
    return ClusterConfig(num_replicas=2, mpl=4, num_clients=8, client_window=8, seed=3)


@pytest.fixture
def transport_threads():
    """``transport_threads()``: the names of the live threads a transport
    owns (the pump, the TCP reader), not counting what was alive when the
    test began — another test's leak is that test's failure."""

    def owned():
        return [
            thread for thread in threading.enumerate()
            if thread.name.startswith(("psmr-tcp-", "psmr-pump"))
        ]

    before = owned()
    return lambda: sorted(t.name for t in owned() if t not in before)
