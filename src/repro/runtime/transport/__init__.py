"""Pluggable delivery transports for the ordered-multicast core.

``inproc`` is the threaded runtime's transport (per-thread queues);
``tcp`` carries the same ordered stream over real sockets to replica
*processes*.  Whatever either does not deliver inline goes through the
one :class:`~repro.runtime.transport.pump.FramePump`, where the fault
plane is applied per link.  See :mod:`repro.runtime.transport.base` for
the interface and threading contract.
"""

from repro.runtime.transport.base import Transport, TransportRoute
from repro.runtime.transport.inproc import DeliveryQueue, InprocTransport
from repro.runtime.transport.tcp import TcpCoordinatorTransport

__all__ = [
    "Transport",
    "TransportRoute",
    "DeliveryQueue",
    "InprocTransport",
    "TcpCoordinatorTransport",
]
