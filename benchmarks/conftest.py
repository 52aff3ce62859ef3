"""Shared settings for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper at reduced
scale (short simulated measurement windows) and prints the corresponding
table so the output can be compared against the paper side by side.

The simulator is a function of its seed, so each printed table must also
match its golden file under ``golden/`` byte for byte: a refactor that
changes a number fails here.  A change that means to move the numbers
regenerates the goldens (each is the test's ``result["text"]`` plus a
newline) and says so in CHANGES.md.
"""

import difflib
import pathlib

import pytest

#: Simulated warmup and measurement durations used by every benchmark.
WARMUP = 0.01
DURATION = 0.03

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def assert_matches_golden(name, text):
    """Compare ``text`` with ``golden/<name>.txt``; fail with a diff if they differ."""
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    actual = text + "\n"
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name}.txt",
            tofile="this run",
        )
        pytest.fail(f"{name} output differs from its golden file:\n" + "".join(diff))


def pytest_collection_modifyitems(items):
    """Mark every test under this directory ``figures`` (see pytest.ini)."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.figures)
