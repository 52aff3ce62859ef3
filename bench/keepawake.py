"""Keep every vCPU of this VM awake while a benchmark runs, and clock the VM's speed.

The box is a 2-vCPU Firecracker guest, and two things about it made the
same code measure 1.5-4x apart from one minute to the next.

**Halting.**  A vCPU that goes idle executes ``HLT`` and the host
deschedules it; when an interrupt wakes it, the time until the host runs
it again is *steal*.  Two pure spin loops on this box see 0 % steal for
minutes.  The system under test is a chain of thread and process
hand-offs, so its vCPUs halt and wake thousands of times per second, and
most of the time those wake-ups cost 30-45 % steal: ``http-point`` ran at
210 requests/s, and at 700 within seconds of starting the spinners below.
One ``SCHED_IDLE`` spin loop pinned to each vCPU removes the cause: the
guest never halts, so the host leaves both vCPUs on their cores.
``SCHED_IDLE`` tasks run only when nothing else wants the CPU and are
preempted the moment anything wakes (it is ``idle=poll``, set from user
space).

**Speed.**  With next to no steal, a fixed piece of pure-Python work
costs between 1.0x and 1.45x the CPU time depending on the minute (host
frequency, a busy sibling hyperthread), and the system under test slows
down with it: over two sets of ten same-code runs per workload, medians of
throughput, latency and CPU per operation were up to 0.40 apart and
spread by up to 0.26 within a set, against 0.14 and 0.12 once divided by
that cost.  So the spinners do their spinning in fixed chunks and publish
``(chunks done, CPU nanoseconds used)``; the CPU time a chunk costs over
an interval, relative to :data:`REFERENCE_CHUNK_S`, is the interval's
*dilation*, and the sampler divides every time it measures by it.  CPU
time of a guest thread includes what the host stole while it was running,
so the dilation also carries the steal that is left.

A spinner exits by itself when its parent is gone.
"""

import contextlib
import mmap
import os
import struct
import subprocess
import sys
import tempfile
import time

#: Iterations of the empty loop per chunk: about a third of a millisecond.
CHUNK = 20_000
#: CPU seconds one chunk costs at dilation 1: this box's median over 80 runs
#: (it ranged from 0.82x to 1.18x of this).
REFERENCE_CHUNK_S = 370e-6
START_TIMEOUT_S = 10.0
_RECORD = struct.Struct("<QQ")  #: chunks done, CPU nanoseconds used


def spin(cpu, parent, path):
    """Spin on ``cpu`` at idle priority while ``parent`` lives; publish progress in ``path``."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    with open(path, "r+b") as file, mmap.mmap(file.fileno(), _RECORD.size) as shared:
        chunks = 0
        begin = time.thread_time_ns()
        while os.getppid() == parent:
            for _ in range(CHUNK):
                pass
            chunks += 1
            _RECORD.pack_into(shared, 0, chunks, time.thread_time_ns() - begin)


class Awake:
    """The running spinners; :meth:`read` is the speed clock."""

    def __init__(self, processes, records):
        self.processes = processes
        self._records = records

    def read(self):
        """``(chunks done, CPU seconds they took)``, summed over the spinners."""
        chunks = nanoseconds = 0
        for record in self._records:
            done, used = _RECORD.unpack_from(record, 0)
            chunks += done
            nanoseconds += used
        return chunks, nanoseconds / 1e9


def dilation(chunks, cpu_s):
    """How much slower than the reference the VM ran while the spinners did
    ``chunks`` chunks in ``cpu_s`` CPU seconds (the difference of two :meth:`Awake.read`).

    ``None`` without a chunk: the system under test left the spinners no
    CPU time, so the interval has no clock.
    """
    if chunks <= 0:
        return None
    return cpu_s / chunks / REFERENCE_CHUNK_S


@contextlib.contextmanager
def vcpus_awake(directory):
    """Run one spinner per CPU this process may use; stop them on exit.

    Their progress records are files in ``directory``, removed on exit.
    """
    os.makedirs(directory, exist_ok=True)
    with contextlib.ExitStack() as exits:
        processes, records = [], []
        for cpu in sorted(os.sched_getaffinity(0)):
            file = exits.enter_context(tempfile.NamedTemporaryFile(dir=directory, prefix="spin-"))
            file.write(bytes(_RECORD.size))
            file.flush()
            records.append(exits.enter_context(mmap.mmap(file.fileno(), _RECORD.size)))
            spinner = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu), str(os.getpid()), file.name]
            )
            exits.callback(spinner.wait)
            exits.callback(spinner.terminate)
            processes.append(spinner)
        awake = Awake(processes, records)
        # Both vCPUs are awake, and the clock runs, once every spinner has done a chunk.
        deadline = time.monotonic() + START_TIMEOUT_S
        while not all(_RECORD.unpack_from(record, 0)[0] for record in records):
            if time.monotonic() > deadline:
                raise RuntimeError("a spinner did not start")
            time.sleep(0.005)
        yield awake


if __name__ == "__main__":
    spin(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
