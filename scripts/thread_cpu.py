"""Per-thread CPU split of one benchmark workload: who holds the runner's GIL.

    python3 scripts/thread_cpu.py --workload http-batch --seconds 8

Brings the workload up the way ``bench/run.py`` does (its ``prepare`` and
``set_up``, imported; nothing under ``bench/`` is edited), warms it up and
reads ``/proc/<pid>/task/*/stat`` and ``status`` of the runner and its
replica children at the ends of four equal sub-windows of the window.
Per thread, as the median of the sub-windows: CPU (user plus system) per
operation with its min-max across them, the share of the sub-window it
was on a CPU, voluntary and involuntary context switches per operation;
and each sub-window's raw operations per second, so a run whose host was
noisy shows it.  The runner's threads share
one GIL, so their summed share is its occupancy — near 1.0 the workload
is bound by it.  Times are raw microseconds (10 ms kernel ticks), not the
benchmark's reference seconds.
"""

import argparse
import contextlib
import os
import re
import statistics
import sys
import threading
import time

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[:1] = [ROOT_DIR, os.path.join(ROOT_DIR, "src")]

from bench import run
from bench.keepawake import vcpus_awake
from bench.workloads import WORKLOADS

_TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def read_threads(pids):
    """``{(pid, tid): (user s, system s, voluntary, involuntary switches)}``."""
    threads = {}
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            task = f"/proc/{pid}/task/{tid}"
            try:
                with open(f"{task}/stat") as stat, open(f"{task}/status") as status:
                    fields = stat.read().rpartition(")")[2].split()
                    switches = re.findall(r"voluntary_ctxt_switches:\s+(\d+)", status.read())
            except OSError:
                continue  # the thread ended while we looked
            user, system = int(fields[11]) * _TICK_S, int(fields[12]) * _TICK_S
            threads[pid, int(tid)] = (user, system, *map(int, switches))
    return threads


def thread_names(pids):
    """The runner's threads by their Python names.  A replica child's are not
    visible from outside; they start in a fixed order, the receive loop
    and then workers ``t1`` to ``t<mpl>``, so they are named by it."""
    names = {(pids[0], thread.native_id): thread.name for thread in threading.enumerate()}
    for replica, pid in enumerate(pids[1:]):
        for index, tid in enumerate(sorted(map(int, os.listdir(f"/proc/{pid}/task")))):
            names[pid, tid] = f"replica{replica}-" + (f"t{index}" if index else "recv")
    return names


#: The ``--seconds`` window is read as this many equal sub-windows: the
#: spread of a thread's cost across them is the run's own noise.
SUB_WINDOWS = 4


def split(workload, seconds, warmup_s=3.0):
    """Run ``workload``; return ``(rows, runner share, sub-window ops/s)``.

    The window is read as :data:`SUB_WINDOWS` equal sub-windows.  A row is
    ``(name, CPU us/op, its min, its max, busy share, voluntary and
    involuntary switches per op)`` — the median of the sub-windows, the
    CPU's range across them too — busiest thread first; the runner's
    share is the median of the sub-windows' too.
    """
    workload = WORKLOADS[workload]
    cycles = run.prepare(workload, 0)
    with vcpus_awake(run.OUT_DIR) as awake, contextlib.ExitStack() as exits:
        stack, generators, _ = run.set_up(exits, awake, workload, cycles)
        callers = [
            threading.Thread(target=generator.run, name=f"generator-{index}", daemon=True)
            for index, generator in enumerate(generators)
        ]
        for caller in callers:
            caller.start()
        def reading():
            return time.perf_counter(), sum(g.ops for g in generators), read_threads(stack.pids)

        try:
            time.sleep(warmup_s)
            readings = [reading()]
            for _ in range(SUB_WINDOWS):
                time.sleep(seconds / SUB_WINDOWS)
                readings.append(reading())
            names = thread_names(stack.pids)
        finally:
            for generator in generators:
                generator.stop = True
            for caller in callers:
                caller.join(30.0)
        for generator in generators:
            if generator.error is not None:
                raise generator.error
    samples, runners, rates = {}, [], []
    for (began, issued, before), (ended, done, after) in zip(readings, readings[1:]):
        elapsed, ops = ended - began, done - issued
        rates.append(ops / elapsed)
        runner = 0.0
        for thread, now in after.items():
            user, system, voluntary, involuntary = (
                new - old for new, old in zip(now, before.get(thread, (0, 0, 0, 0)))
            )
            busy = (user + system) / elapsed
            runner += busy if thread[0] == stack.pids[0] else 0.0
            samples.setdefault(thread, []).append(
                (1e6 * (user + system) / ops, busy, voluntary / ops, involuntary / ops)
            )
        runners.append(runner)
    rows = []
    for thread, columns in samples.items():
        cpu, busy, voluntary, involuntary = map(list, zip(*columns))
        rows.append((names.get(thread, f"pid{thread[0]}-tid{thread[1]}"),
                     statistics.median(cpu), min(cpu), max(cpu), statistics.median(busy),
                     statistics.median(voluntary), statistics.median(involuntary)))
    return sorted(rows, key=lambda row: -row[4]), statistics.median(runners), rates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, default=8.0, help="the sampled window")
    args = parser.parse_args(argv)
    rows, runner, rates = split(args.workload, args.seconds)
    print(f"{args.workload}: raw ops/s in {SUB_WINDOWS} sub-windows of "
          f"{args.seconds / SUB_WINDOWS:g} s: " + " ".join(f"{rate:.0f}" for rate in rates))
    print("per operation, the median of the sub-windows (CPU: min-max across them):")
    print(f"{'thread':28s} {'CPU us':>8s} {'min-max':>13s} {'busy':>6s} {'vol cs':>7s} {'invol cs':>8s}")
    for name, cpu, low, high, busy, voluntary, involuntary in rows:
        spread = f"{low:.1f}-{high:.1f}"
        print(f"{name:28s} {cpu:8.1f} {spread:>13s} {busy:6.2f} {voluntary:7.3f} {involuntary:8.3f}")
    print(f"runner threads' summed share (GIL occupancy), median: {runner:.2f}")


if __name__ == "__main__":
    main()
