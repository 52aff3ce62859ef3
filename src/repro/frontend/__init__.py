"""Client-facing HTTP frontend over the replicated services.

``create_app`` builds the ASGI app (on :mod:`~repro.frontend.miniapi`) over
:class:`ClusterBackend` bridges; ``limits``/``server``/``testing``
provide backpressure, the socket server and the in-process test client.
The benchmark's ``http-point`` / ``http-batch`` workloads (``bench/``)
measure this stack over real sockets.
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
