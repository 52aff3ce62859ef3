"""Guard: no wall-clock timing on any measurement or runtime path.

``time.time()`` is subject to NTP steps and DST adjustments; a benchmark
or latency measurement taken with it can go backwards or jump.  Every
duration in the runtime, the metrics layer and the benchmark runner must
come from ``time.monotonic()`` / ``time.perf_counter()``, and the simulator
must stay a function of virtual time and its seed only.  This sweep walks
every module under ``src/repro`` so a future edit, or a new package, cannot
quietly reintroduce wall-clock timing.
"""

import os
import re

import repro

#: Matches a call of time.time (not time.monotonic / perf_counter).
_WALLCLOCK = re.compile(r"\btime\.time\s*\(")


def _python_sources():
    root = list(repro.__path__)[0]
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)
    # The benchmark that is actually used, its helper scripts and the
    # paper-figure tests live beside ``src/``, not under it.
    repo_root = os.path.normpath(os.path.join(root, os.pardir, os.pardir))
    for directory in ("bench", "scripts", "benchmarks"):
        for name in os.listdir(os.path.join(repo_root, directory)):
            if name.endswith(".py"):
                yield os.path.join(repo_root, directory, name)


def test_no_wallclock_timing_anywhere():
    offenders = []
    for path in _python_sources():
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                if _WALLCLOCK.search(line):
                    offenders.append(f"{path}:{line_number}: {line.strip()}")
    assert not offenders, (
        "wall-clock timing found (use time.monotonic/perf_counter):\n"
        + "\n".join(offenders)
    )
