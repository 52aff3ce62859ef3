"""Steal sampling and the statistics taken over the slices of a window.

A window is cut into fixed one-second slices; the recording is in
:mod:`bench.loadgen`, everything here is a pure function over recorded
numbers.  All slices count.  Every time is divided by its slice's
*dilation* (:mod:`bench.keepawake`: how much slower than the reference
this VM ran during the slice, steal included) and every rate multiplied by
it; the steal itself is only reported, as ``host.*``, so a reader can
tell a run on a contended host from a change in the code.
"""

import math
import statistics
from typing import NamedTuple

from bench.keepawake import dilation

#: A slice is quiet when at most this share of the host's CPU time was stolen.
QUIET_STEAL = 0.03
#: A window with fewer quiet slices than this (or than half of a shorter
#: window) is flagged ``host.noisy``.
MIN_QUIET = 10
#: A reported tail percentile leaves at least this many samples beyond it.
TAIL_SAMPLES = 10


class Slice(NamedTuple):
    """What was recorded between two slice boundaries."""

    seconds: float
    ops: int  #: KV operations completed (a 32-op batch counts 32)
    requests: int  #: requests completed (one latency sample each)
    cpu_s: float  #: CPU seconds of runner + replica children
    gen_cpu_s: float  #: CPU seconds of the generator threads (part of cpu_s)
    steal: float  #: share of host CPU time stolen by the hypervisor
    spin: tuple  #: the spinners' (chunks done, CPU seconds used): the speed clock
    samples: tuple  #: per generator, the (lo, hi) range of its latency buffer


def parse_cpu_line(line):
    """The counters of the aggregate ``cpu`` line of ``/proc/stat``."""
    fields = line.split()
    if not fields or fields[0] != "cpu":
        raise ValueError(f"not the aggregate cpu line: {line!r}")
    return tuple(int(field) for field in fields[1:])


def read_cpu_counters(path="/proc/stat"):
    with open(path) as stat:
        return parse_cpu_line(stat.readline())


def steal_share(before, after):
    """Delta of the steal column over the delta of all columns.

    Kernels without a steal column (fewer than eight counters) and a
    window in which no tick elapsed both read as 0: no steal observed.
    """
    total = sum(after) - sum(before)
    if len(after) < 8 or len(before) < 8 or total <= 0:
        return 0.0
    return (after[7] - before[7]) / total


def host_report(steals):
    """The ``host.*`` rows of a window from its slices' steal shares."""
    quiet = sum(steal <= QUIET_STEAL for steal in steals)
    return {
        "host.steal_frac": statistics.fmean(steals),
        "host.quiet_slices": quiet,
        "host.noisy": int(quiet < min(MIN_QUIET, max(1, len(steals) // 2))),
    }


def tail_percentile(ordered):
    """``(value, quantile_reported)`` of an ascending sample list.

    The 99th percentile when at least :data:`TAIL_SAMPLES` samples lie
    above it; otherwise the highest percentile that leaves that many
    (never below the median), so a short window reports a lower, but
    supported, percentile.
    """
    count = len(ordered)
    if not count:
        raise ValueError("no latency samples")
    index = min(math.ceil(0.99 * count) - 1, count - 1 - TAIL_SAMPLES)
    index = max(index, count // 2)
    return ordered[index], (index + 1) / count


def pooled_dilation(clocks):
    """One dilation over several intervals' ``(chunks, CPU seconds)`` together.

    1.0 when the spinners did not finish a chunk in any of them: a host
    that busy is no reason to end a run without a result, and the times
    are then as the wall clock measured them.
    """
    return dilation(*map(sum, zip(*clocks))) or 1.0


def dilations(slices):
    """Every slice's dilation; the window's own where a slice has no clock."""
    whole = pooled_dilation(one.spin for one in slices)
    return [dilation(*one.spin) or whole for one in slices]


def setup_seconds(setups):
    """The median of several set-ups' ``(seconds, spinners' clock over it)``, in reference seconds.

    Divided by one dilation pooled over all of them: a direct stack sets
    up in a quarter of a second on one vCPU, and when the host takes the
    other vCPU for most of that, the spinners finish few chunks or none
    and the set-up's own dilation reads anything from 1.6 to 6.
    """
    slow = pooled_dilation(clock for _seconds, clock in setups)
    return statistics.median(seconds for seconds, _clock in setups) / slow


def summarise(slices, latencies, harness_s=None):
    """End-to-end numbers of one window.

    ``latencies`` holds each generator's latency buffer (seconds), which
    the slices' ``samples`` ranges index into.  ``harness_s`` is the
    generators' own CPU cost per request where their threads' CPU time
    also contains work of the system under test (the direct workloads).
    """
    ops = sum(one.ops for one in slices)
    requests = sum(one.requests for one in slices)
    if not ops:
        raise RuntimeError("no operation completed in the window")

    def own_cpu(one):
        return one.gen_cpu_s if harness_s is None else harness_s * one.requests

    slowed = dilations(slices)
    ordered = sorted(
        sample / slow
        for one, slow in zip(slices, slowed)
        for buffer, (low, high) in zip(latencies, one.samples)
        for sample in buffer[low:high]
    )
    p99, reported = tail_percentile(ordered)
    own = sum(own_cpu(one) / slow for one, slow in zip(slices, slowed))
    cpu = sum(one.cpu_s / slow for one, slow in zip(slices, slowed))
    return {
        "ops_per_s": statistics.median(
            slow * one.ops / one.seconds for one, slow in zip(slices, slowed)
        ),
        "latency_p50_ms": 1e3 * ordered[len(ordered) // 2],
        "latency_p99_ms": 1e3 * p99,
        "latency_tail_quantile": reported,
        "latency_samples": len(ordered),
        "cpu_us_per_op": 1e6 * (cpu - own) / ops,
        "loadgen.self_us": 1e6 * own / requests,
        "loadgen.cpu_frac": own / cpu,
        "host.dilation": statistics.fmean(slowed),
        **host_report([one.steal for one in slices]),
    }
