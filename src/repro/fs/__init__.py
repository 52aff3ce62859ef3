"""In-memory file system used by the NetFS service (paper sections V-B, VI-C).

Implements the subset of FUSE calls the paper's NetFS exposes: enough to
manipulate files and directories (no soft or hard links), with a per-server
file-descriptor table shared by all worker threads.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the module defining it, resolved on first access
#: (PEP 562): the codec needs ``Stat``, never the file system.
_EXPORTS = {
    "MemoryFileSystem": "repro.fs.memfs",
    "Stat": "repro.fs.statinfo",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
