"""Client-facing HTTP frontend over the replicated services (ROADMAP item 2).

``create_app`` builds the ASGI app (on :mod:`~repro.frontend.miniapi`) over
:class:`ClusterBackend` bridges; ``limits``/``server``/``testing``
provide backpressure, sockets, and in-process clients.
"""

from repro.frontend.app import create_app
from repro.frontend.backend import BackendTimeout, ClusterBackend
from repro.frontend.limits import InFlightLimiter, Saturated

__all__ = [
    "BackendTimeout",
    "ClusterBackend",
    "InFlightLimiter",
    "Saturated",
    "create_app",
]
