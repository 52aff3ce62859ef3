"""Every workload end to end at toy scale: verified, and nothing left running."""

import json
import os
import subprocess
import sys
import time

import pytest

from bench import keepawake, run
from bench.keepawake import vcpus_awake
from bench.loadgen import DirectGenerator, HttpGenerator
from bench.workloads import WORKLOADS

TOY = run.Protocol(slices=3, slice_s=0.3, warmup_s=0.3, setups=1)


def surviving_children():
    """Pids of this process's replica and spinner children that are still there."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                command = cmdline.read()
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rpartition(")")[2].split()[1])
        except OSError:
            continue  # the process ended while we looked
        if parent == os.getpid() and (
            b"repro.runtime.replica_proc" in command or b"keepawake.py" in command
        ):
            found.append(int(entry))
    return found


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    """Everything a run writes goes to a directory that is not there yet, as on a clean checkout."""
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    return tmp_path / "out"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_verified_and_leaves_no_child_process(name):
    (attempted, failed, converged), metrics = run.measure(WORKLOADS[name], 3, TOY)
    assert attempted > 0 and failed == 0 and converged
    assert surviving_children() == []
    end_to_end, _per_layer = run.declared_metrics()
    assert set(end_to_end) <= set(metrics)
    assert all(metrics[metric] > 0 for metric in end_to_end)


@pytest.mark.parametrize("generator", [HttpGenerator, DirectGenerator])
def test_generator_exception_ends_the_run_and_leaves_no_child_process(monkeypatch, generator):
    def broken(self):
        raise RuntimeError("generator broke")

    monkeypatch.setattr(generator, "loop", broken)
    name = "http-point" if generator is HttpGenerator else "direct-dep"
    with pytest.raises(RuntimeError, match="generator broke"):
        run.measure(WORKLOADS[name], 3, TOY)
    assert surviving_children() == []


@pytest.mark.parametrize("name", ["http-point", "direct-indep"])
def test_traced_run_reports_every_declared_layer_metric(name, out_dir):
    (attempted, failed, converged), metrics = run.measure_traced(WORKLOADS[name], 3, TOY)
    assert attempted > 0 and failed == 0 and converged
    assert surviving_children() == []
    _end_to_end, per_layer = run.declared_metrics()
    metrics["failed_frac"] = failed / attempted  # as run_workload adds it
    reported = run.layer_report(WORKLOADS[name], per_layer, metrics)
    assert set(reported) == set(per_layer)
    frontend = ("frontend.server.self_us", "frontend.app.self_us", "frontend.backend.bridge_us")
    for metric in frontend:
        assert (reported[metric] > 0) == (name == "http-point")
    for metric in ("runtime.cluster.client_self_us", "core.cg.route_us",
                   "runtime.multicast.self_us", "runtime.transport.send_us",
                   "runtime.replica.turnaround_us", "services.kvstore.execute_us",
                   "runtime.multicast.msgs_per_op", "runtime.replica.avg_batch"):
        assert reported[metric] > 0
    assert (reported["runtime.cluster.scaling_4v1"] > 0) == (name == "direct-indep")
    assert 0.5 < metrics["trace.coverage"] < 1.5
    with open(out_dir / f"trace-{name}.json") as trace_file:
        trace = json.load(trace_file)
    assert trace["fingerprint"]["seed"] == 3
    assert trace["spans"] and len(trace["spans"][0]) == len(trace["span_fields"])


def test_a_layer_on_the_path_that_was_not_measured_is_an_error_not_a_zero():
    _end_to_end, per_layer = run.declared_metrics()
    measured = dict.fromkeys(per_layer, 1.0)
    direct = run.layer_report(WORKLOADS["direct-dep"], per_layer, measured)
    assert direct["frontend.app.self_us"] == 0.0 and direct["runtime.cluster.scaling_4v1"] == 0.0
    assert direct["core.cg.route_us"] == 1.0
    assert run.layer_report(WORKLOADS["http-batch"], per_layer, measured)["frontend.app.self_us"] == 1.0
    del measured["frontend.app.self_us"]
    run.layer_report(WORKLOADS["direct-dep"], per_layer, measured)  # off its path: not missed
    with pytest.raises(RuntimeError, match="frontend.app.self_us"):
        run.layer_report(WORKLOADS["http-point"], per_layer, measured)
    del measured["core.cg.route_us"]
    with pytest.raises(RuntimeError, match="core.cg.route_us"):
        run.layer_report(WORKLOADS["direct-dep"], per_layer, measured)


def test_spinners_idle_priority_one_per_cpu_clocked_and_gone_afterwards(tmp_path):
    with vcpus_awake(tmp_path / "out") as awake:
        spinners = awake.processes
        assert len(spinners) == len(os.sched_getaffinity(0))
        deadline = time.monotonic() + 5
        while any(os.sched_getscheduler(spinner.pid) != os.SCHED_IDLE for spinner in spinners):
            assert time.monotonic() < deadline, "a spinner never lowered its priority"
            time.sleep(0.01)
        before = awake.read()
        while awake.read()[0] < before[0] + 100:
            assert time.monotonic() < deadline, "the spinners make no progress"
            time.sleep(0.01)
        chunks, cpu_s = (new - old for old, new in zip(before, awake.read()))
        assert 0.2 < keepawake.dilation(chunks, cpu_s) < 5  # this box is near the reference
        assert all(spinner.poll() is None for spinner in spinners)
    assert all(spinner.returncode is not None for spinner in spinners)
    assert os.listdir(tmp_path / "out") == []


def test_a_spinner_ends_when_its_parent_is_gone(tmp_path):
    stand_in = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    record = tmp_path / "record"
    record.write_bytes(bytes(16))
    spinner = subprocess.Popen(
        [sys.executable, keepawake.__file__, "0", str(stand_in.pid), str(record)]
    )
    # Its real parent is this test, not ``stand_in``: it must notice and leave.
    assert spinner.wait(timeout=10) == 0
    stand_in.kill()
    stand_in.wait()
