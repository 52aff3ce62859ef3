"""Replicated services used in the paper's evaluation (section V).

Two services are provided, each consisting of a :class:`ServiceSpec`
(command signatures + routing declarations from which C-Dep and C-G are
derived) and a deterministic server state machine:

* :mod:`repro.services.kvstore` — a B+-tree backed key-value store with
  ``insert``, ``delete``, ``read`` and ``update`` commands;
* :mod:`repro.services.netfs` — a networked file system exposing a subset
  of FUSE calls over an in-memory file system.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, resolved on first access
#: (PEP 562): a kvstore replica never loads NetFS or its file system.
_EXPORTS = {
    "KVSTORE_SPEC": "repro.services.kvstore",
    "KeyValueStoreServer": "repro.services.kvstore",
    "build_kvstore_spec": "repro.services.kvstore",
    "NETFS_SPEC": "repro.services.netfs",
    "NetFSServer": "repro.services.netfs",
    "build_netfs_spec": "repro.services.netfs",
    "path_range": "repro.services.netfs",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
