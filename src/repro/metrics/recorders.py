"""Latency, throughput and CPU-usage recorders used by the simulation runtime."""

from collections import defaultdict

from repro.common.errors import ConfigurationError


class LatencyRecorder:
    """Collects per-command latencies (seconds) within the measurement window."""

    def __init__(self):
        self._samples = []

    def reset(self):
        """Drop every recorded sample (used when a measurement window opens)."""
        self._samples = []

    def record(self, latency):
        if latency < 0:
            raise ConfigurationError("negative latency recorded")
        self._samples.append(latency)

    def __len__(self):
        return len(self._samples)

    @property
    def samples(self):
        return list(self._samples)

    def mean(self):
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def cdf(self, points=50):
        """Return ``[(latency, cumulative fraction)]`` suitable for plotting."""
        if not self._samples:
            return []
        ordered = sorted(self._samples)
        n = len(ordered)
        step = max(1, n // points)
        curve = []
        for index in range(0, n, step):
            curve.append((ordered[index], (index + 1) / n))
        if curve[-1][1] < 1.0:
            curve.append((ordered[-1], 1.0))
        return curve


class ThroughputMeter:
    """Counts completed commands inside the measurement window."""

    def __init__(self):
        self.completed = 0
        self.window_start = None
        self.window_end = None

    def open_window(self, start):
        self.window_start = start

    def close_window(self, end):
        self.window_end = end

    def record_completion(self, when):
        if self.window_start is not None and when >= self.window_start and (
            self.window_end is None or when <= self.window_end
        ):
            self.completed += 1

    def throughput(self):
        """Completed commands per second over the measurement window."""
        if self.window_start is None or self.window_end is None:
            return 0.0
        duration = self.window_end - self.window_start
        if duration <= 0:
            return 0.0
        return self.completed / duration

    def throughput_kcps(self):
        """Kilo-commands per second, the unit used throughout the paper."""
        return self.throughput() / 1000.0


class CpuAccountant:
    """Tracks busy time per named component (thread, scheduler, coordinator)."""

    def __init__(self):
        self._busy = defaultdict(float)
        self.window_start = None
        self.window_end = None

    def open_window(self, start):
        self.window_start = start

    def close_window(self, end):
        self.window_end = end

    def charge(self, component, amount, now):
        """Attribute ``amount`` seconds of CPU to ``component`` at time ``now``."""
        if amount < 0:
            raise ConfigurationError("negative CPU charge")
        if self.window_start is not None and now < self.window_start:
            return
        if self.window_end is not None and now > self.window_end:
            return
        self._busy[component] += amount

    def busy_time(self, component):
        return self._busy.get(component, 0.0)

    def utilization(self, component):
        """Busy fraction of one component over the window (0..1)."""
        if self.window_start is None or self.window_end is None:
            return 0.0
        duration = self.window_end - self.window_start
        if duration <= 0:
            return 0.0
        return self._busy.get(component, 0.0) / duration

    def total_cpu_percent(self, prefix=None):
        """Aggregate CPU usage in 'percent of one core', like the paper's graphs.

        ``prefix`` restricts the aggregation to components whose name starts
        with it (e.g. one replica).
        """
        if self.window_start is None or self.window_end is None:
            return 0.0
        duration = self.window_end - self.window_start
        if duration <= 0:
            return 0.0
        total = sum(
            busy
            for component, busy in self._busy.items()
            if prefix is None or str(component).startswith(prefix)
        )
        return 100.0 * total / duration

    def components(self):
        return sorted(self._busy)
