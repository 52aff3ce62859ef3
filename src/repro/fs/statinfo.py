"""What ``lstat`` answers: the one file-system value that crosses the wire.

It lives apart from :mod:`repro.fs.memfs` so that the codec, which
carries it, does not load the file system into every replica process.
"""

from dataclasses import dataclass


@dataclass
class Stat:
    """A small subset of ``struct stat`` sufficient for NetFS clients."""

    is_dir: bool
    size: int
    mode: int
    nlink: int
    atime: float
    mtime: float
