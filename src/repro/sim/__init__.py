"""A small discrete-event simulation kernel (simpy-flavoured).

The kernel drives every performance experiment in this repository: worker
threads, schedulers, Paxos coordinators and clients are generator-based
processes; CPU work and network hops are timeouts; queues between
components are :class:`~repro.sim.resources.Store` objects.

Only the features the replication systems need are implemented: events,
timeouts, processes, FIFO stores, capacity-limited resources and a virtual
clock.  The public surface mirrors the subset of simpy used in most
distributed-system simulators so the code reads familiarly.
"""

from repro.sim.events import Event, Timeout, Process, AnyOf, AllOf
from repro.sim.environment import Environment
from repro.sim.resources import Store, Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Store",
    "Resource",
]
