"""Delivery transports under the ordered-multicast core.

``inproc`` holds the receiving end every replica runs
(:class:`~repro.runtime.transport.inproc.ReplicaInbox`) and the threaded
runtime's transport (worker queues filled in-process); ``tcp`` carries
the same ordered stream over real sockets to replica *processes*.
Whatever either does not deliver inline goes through the one
:class:`~repro.runtime.transport.pump.FramePump`, where the fault plane
is applied per link.  Neither owns a thread: the pump's passes and the
TCP sockets run on the process's one I/O loop
(:mod:`repro.runtime.ioloop`), which the HTTP edge shares.
:mod:`repro.runtime.multicast` states what a transport provides and its
threading contract.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, resolved on first access
#: (PEP 562): a replica process needs the inbox, never the TCP server.
_EXPORTS = {
    "DeliveryQueue": "repro.runtime.transport.inproc",
    "InprocTransport": "repro.runtime.transport.inproc",
    "ReplicaInbox": "repro.runtime.transport.inproc",
    "TcpCoordinatorTransport": "repro.runtime.transport.tcp",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)

