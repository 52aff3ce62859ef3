"""Worker-thread execution-mode logic (Algorithm 1, lines 8-26).

Upon delivering a command, a worker thread decides between:

* **parallel mode** — the command was multicast to a single group: the
  delivering thread executes it and replies directly;
* **synchronous mode** — the command was multicast to several groups: the
  lowest-indexed destination thread executes it after a barrier with every
  other destination thread; the others signal the executor and wait.

``plan_execution`` captures the deterministic part of that decision so both
the simulated and the live runtimes (and the tests) share it.  The
simulator follows Algorithm 1 literally: the executor it names waits for
its peers, runs the command and signals them.  The live engine
(:mod:`repro.runtime.engine`) uses the plan only to tell the modes apart
and to size the barrier: whichever destination thread arrives last runs
the command and releases the rest, which saves a hand-off to a sleeping
executor.  The two are equivalent: either way the command runs while
every other destination thread is parked at the same point of its
stream, after everything ordered before it there and before anything
ordered after it, so the service sees the same sequence of commands.
"""

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.multicast.group import ALL_GROUPS


@dataclass(frozen=True)
class ExecutionPlan:
    """What a worker thread must do with a delivered command."""

    #: "parallel", "execute" (synchronous-mode executor), "assist"
    #: (synchronous-mode non-executor) or "ignore" (delivered via the shared
    #: stream but not a destination of the command).
    mode: str
    #: The thread that executes the command.
    executor: int
    #: Threads the executor must wait for / signal (excludes the executor).
    peers: Tuple[int, ...] = ()

    @property
    def executes(self):
        return self.mode in ("parallel", "execute")


def plan_execution(destinations, thread_index, mpl):
    """Compute the :class:`ExecutionPlan` for a delivered command.

    ``destinations`` is the command's gamma: :data:`ALL_GROUPS` or an
    iterable of group ids; ``thread_index`` is the delivering thread's
    1-based index; ``mpl`` the multiprogramming level.
    """
    if not 1 <= thread_index <= mpl:
        raise ProtocolError(f"thread index {thread_index} outside 1..{mpl}")
    if destinations == ALL_GROUPS:
        groups: FrozenSet[int] = frozenset(range(1, mpl + 1))
    else:
        groups = frozenset(int(g) for g in destinations)
        if not groups:
            raise ProtocolError("command with an empty destination set")
        if not groups <= set(range(1, mpl + 1)):
            raise ProtocolError(f"destination groups {groups} outside 1..{mpl}")

    if len(groups) == 1:
        only = next(iter(groups))
        if only == thread_index:
            return ExecutionPlan(mode="parallel", executor=thread_index)
        # Delivered through the shared stream by a thread that is not the
        # destination (possible only with non-prototype stream mappings).
        return ExecutionPlan(mode="ignore", executor=only)

    executor = min(groups)
    peers = tuple(sorted(groups - {executor}))
    if thread_index == executor:
        return ExecutionPlan(mode="execute", executor=executor, peers=peers)
    if thread_index in groups:
        return ExecutionPlan(mode="assist", executor=executor, peers=peers)
    return ExecutionPlan(mode="ignore", executor=executor, peers=peers)
