"""Per-thread CPU split of one benchmark workload: who holds the runner's GIL.

    python3 scripts/thread_cpu.py --workload http-batch --seconds 8

Brings the workload up the way ``bench/run.py`` does (its ``prepare`` and
``set_up``, imported; nothing under ``bench/`` is edited), warms it up and
reads ``/proc/<pid>/task/*/stat`` and ``status`` of the runner and its
replica children on both sides of a window.  Per thread: user and system
CPU per operation, the share of the window it was on a CPU, voluntary and
involuntary context switches per operation.  The runner's threads share
one GIL, so their summed share is its occupancy — near 1.0 the workload
is bound by it.  Times are raw microseconds (10 ms kernel ticks), not the
benchmark's reference seconds.
"""

import argparse
import contextlib
import os
import re
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


def split(workload, seconds, warmup_s=3.0):
    """Run ``workload``; return ``(rows, runner share, operations per second)``.

    A row is ``(name, user us/op, system us/op, busy share, voluntary and
    involuntary switches per op)``, busiest thread first.
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
        try:
            time.sleep(warmup_s)
            began, issued = time.perf_counter(), sum(g.ops for g in generators)
            before = read_threads(stack.pids)
            time.sleep(seconds)
            after, names = read_threads(stack.pids), thread_names(stack.pids)
            ops = sum(g.ops for g in generators) - issued
            elapsed = time.perf_counter() - began
        finally:
            for generator in generators:
                generator.stop = True
            for caller in callers:
                caller.join(30.0)
        for generator in generators:
            if generator.error is not None:
                raise generator.error
    rows, runner = [], 0.0
    for thread, now in after.items():
        user, system, voluntary, involuntary = (
            new - old for new, old in zip(now, before.get(thread, (0, 0, 0, 0)))
        )
        busy = (user + system) / elapsed
        runner += busy if thread[0] == stack.pids[0] else 0.0
        rows.append((names.get(thread, f"pid{thread[0]}-tid{thread[1]}"), 1e6 * user / ops,
                     1e6 * system / ops, busy, voluntary / ops, involuntary / ops))
    return sorted(rows, key=lambda row: -row[3]), runner, ops / elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, default=8.0, help="the sampled window")
    args = parser.parse_args(argv)
    rows, runner, rate = split(args.workload, args.seconds)
    print(f"{args.workload}: {rate:.0f} raw ops/s over {args.seconds:g} s; per operation:")
    print(f"{'thread':28s} {'user us':>8s} {'sys us':>8s} {'busy':>6s} {'vol cs':>7s} {'invol cs':>8s}")
    for name, user, system, busy, voluntary, involuntary in rows:
        print(f"{name:28s} {user:8.1f} {system:8.1f} {busy:6.2f} {voluntary:7.3f} {involuntary:8.3f}")
    print(f"runner threads' summed share (GIL occupancy): {runner:.2f}")


if __name__ == "__main__":
    main()
