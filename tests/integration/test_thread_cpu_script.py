"""``scripts/thread_cpu.py`` at toy scale: it names the threads that matter
(the runner's one I/O thread among them), reads four sub-windows and
leaves nothing running."""

import importlib.util
import os

from bench import run
from bench.tests.test_smoke import surviving_children

SCRIPT = os.path.join(run.ROOT_DIR, "scripts", "thread_cpu.py")


def test_split_names_the_runner_and_replica_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    spec = importlib.util.spec_from_file_location("thread_cpu", SCRIPT)
    thread_cpu = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(thread_cpu)
    rows, runner, rates = thread_cpu.split("http-batch", seconds=0.8, warmup_s=0.2)
    names = {row[0] for row in rows}
    # The runner's socket I/O is one loop thread: HTTP, the replica links
    # and the frame pump; none of the three threads it replaced is left.
    assert {"psmr-io", "generator-0", "generator-1"} <= names
    assert not {"frontend-http", "psmr-pump", "psmr-tcp-reader"} & names
    for replica in (0, 1):
        assert {f"replica{replica}-recv", *(f"replica{replica}-t{t}" for t in range(1, 5))} <= names
    # One raw rate per sub-window, and a median CPU inside its min-max.
    assert len(rates) == thread_cpu.SUB_WINDOWS == 4 and all(rate > 0 for rate in rates)
    assert 0 < runner <= len(os.sched_getaffinity(0))
    assert all(value >= 0 for row in rows for value in row[1:])
    assert all(low <= cpu <= high for _name, cpu, low, high, *_rest in rows)
    assert surviving_children() == []
