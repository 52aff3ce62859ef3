"""Shared settings for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper at reduced
scale (short simulated measurement windows) and prints the corresponding
table so the output can be compared against the paper side by side.
"""

import pathlib

import pytest

#: Simulated warmup and measurement durations used by every benchmark.
WARMUP = 0.01
DURATION = 0.03


def pytest_collection_modifyitems(items):
    """Mark every test under this directory ``figures`` (see pytest.ini)."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.figures)
