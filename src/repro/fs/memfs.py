"""A deterministic in-memory POSIX-like file system.

The file system is the replicated state machine behind NetFS.  Every call
is deterministic given the current state and its arguments (time stamps are
supplied by the caller rather than read from a wall clock), which is what
state-machine replication requires.
"""

from dataclasses import dataclass, field

from repro.common.errors import FileSystemError
from repro.fs.statinfo import Stat


@dataclass
class _Inode:
    is_dir: bool
    mode: int
    atime: float = 0.0
    mtime: float = 0.0
    data: bytearray = field(default_factory=bytearray)
    entries: dict = field(default_factory=dict)
    #: Stable inode number: allocated once, never reused, preserved across
    #: checkpoint/restore so delta checkpoints can name inodes.
    ino: int = 0
    #: Open-descriptor count and link status, used to decide when an inode
    #: is dead (unreachable from the root *and* from the fd table).
    nopen: int = 0
    linked: bool = True


def split_path(path):
    """Normalise ``path`` into a list of components; raise on invalid paths."""
    if not path or not path.startswith("/"):
        raise FileSystemError("EINVAL", f"path must be absolute: {path!r}")
    parts = [part for part in path.split("/") if part]
    for part in parts:
        if part in (".", ".."):
            raise FileSystemError("EINVAL", "'.' and '..' are not supported")
    return parts


class MemoryFileSystem:
    """An in-memory tree of directories and regular files plus an fd table.

    The file-descriptor table mirrors the paper's NetFS servers, where each
    client-visible descriptor maps to a local descriptor via a hash table
    shared by every worker thread (the reason ``open``/``release`` depend on
    all commands in the C-Dep).
    """

    def __init__(self):
        self._root = _Inode(is_dir=True, mode=0o755, ino=0)
        self._next_ino = 1
        #: Registry of every live inode (reachable from the root or held
        #: open), keyed by inode number — the basis of delta checkpoints.
        self._inodes = {0: self._root}
        self._fd_table = {}
        self._next_fd = 3  # 0-2 reserved, as on POSIX systems
        #: Delta-tracking tiers since the last mark: inodes whose content
        #: or entries changed (serialised in full), inodes only *touched*
        #: (atime/mtime — serialised as a small attr-only record, so reads
        #: do not drag file contents into deltas), and inodes that died.
        self._dirty_inos = set()
        self._attr_inos = set()
        self._dead_inos = set()

    # ------------------------------------------------------------------
    # Inode bookkeeping (delta-checkpoint support)
    # ------------------------------------------------------------------
    def _new_inode(self, is_dir, mode, now):
        inode = _Inode(
            is_dir=is_dir, mode=mode, atime=now, mtime=now, ino=self._next_ino
        )
        self._next_ino += 1
        self._inodes[inode.ino] = inode
        self._dirty_inos.add(inode.ino)
        return inode

    def _mark_dirty(self, inode):
        """Content tier: data or entries changed (promotes an attr-only mark)."""
        self._dirty_inos.add(inode.ino)
        self._attr_inos.discard(inode.ino)

    def _mark_attr_dirty(self, inode):
        """Attr tier: only timestamps changed (reads, opens, utimens)."""
        if inode.ino not in self._dirty_inos:
            self._attr_inos.add(inode.ino)

    def _unlink_inode(self, inode):
        inode.linked = False
        self._maybe_dead(inode)

    def _maybe_dead(self, inode):
        """Drop an inode that is neither linked nor open from the registry."""
        if inode.linked or inode.nopen > 0 or inode is self._root:
            return
        self._inodes.pop(inode.ino, None)
        self._dirty_inos.discard(inode.ino)
        self._attr_inos.discard(inode.ino)
        self._dead_inos.add(inode.ino)

    # ------------------------------------------------------------------
    # Path resolution helpers
    # ------------------------------------------------------------------
    def _lookup(self, path):
        node = self._root
        for part in split_path(path):
            if not node.is_dir:
                raise FileSystemError("ENOTDIR", f"not a directory on the way to {path}")
            child = node.entries.get(part)
            if child is None:
                raise FileSystemError("ENOENT", f"no such file or directory: {path}")
            node = child
        return node

    def _lookup_parent(self, path):
        parts = split_path(path)
        if not parts:
            raise FileSystemError("EINVAL", "operation on the root directory")
        node = self._root
        for part in parts[:-1]:
            child = node.entries.get(part)
            if child is None:
                raise FileSystemError("ENOENT", f"missing parent component of {path}")
            if not child.is_dir:
                raise FileSystemError("ENOTDIR", f"parent is not a directory: {path}")
            node = child
        return node, parts[-1]

    def exists(self, path):
        """Return whether ``path`` resolves to a file or directory."""
        try:
            self._lookup(path)
            return True
        except FileSystemError:
            return False

    # ------------------------------------------------------------------
    # Structure-changing calls (depend on all commands in NetFS's C-Dep)
    # ------------------------------------------------------------------
    def create(self, path, mode=0o644, now=0.0):
        """Create a regular file and return a file descriptor opened on it."""
        parent, name = self._lookup_parent(path)
        if name in parent.entries:
            raise FileSystemError("EEXIST", f"file exists: {path}")
        inode = self._new_inode(is_dir=False, mode=mode, now=now)
        parent.entries[name] = inode
        parent.mtime = now
        self._mark_dirty(parent)
        return self._allocate_fd(inode)

    def mknod(self, path, mode=0o644, now=0.0):
        """Create a regular file without opening it."""
        parent, name = self._lookup_parent(path)
        if name in parent.entries:
            raise FileSystemError("EEXIST", f"file exists: {path}")
        parent.entries[name] = self._new_inode(is_dir=False, mode=mode, now=now)
        parent.mtime = now
        self._mark_dirty(parent)
        return 0

    def mkdir(self, path, mode=0o755, now=0.0):
        """Create a directory."""
        parent, name = self._lookup_parent(path)
        if name in parent.entries:
            raise FileSystemError("EEXIST", f"file exists: {path}")
        parent.entries[name] = self._new_inode(is_dir=True, mode=mode, now=now)
        parent.mtime = now
        self._mark_dirty(parent)
        return 0

    def unlink(self, path, now=0.0):
        """Remove a regular file."""
        parent, name = self._lookup_parent(path)
        inode = parent.entries.get(name)
        if inode is None:
            raise FileSystemError("ENOENT", f"no such file: {path}")
        if inode.is_dir:
            raise FileSystemError("EISDIR", f"is a directory: {path}")
        del parent.entries[name]
        parent.mtime = now
        self._mark_dirty(parent)
        self._unlink_inode(inode)
        return 0

    def rmdir(self, path, now=0.0):
        """Remove an empty directory."""
        parent, name = self._lookup_parent(path)
        inode = parent.entries.get(name)
        if inode is None:
            raise FileSystemError("ENOENT", f"no such directory: {path}")
        if not inode.is_dir:
            raise FileSystemError("ENOTDIR", f"not a directory: {path}")
        if inode.entries:
            raise FileSystemError("ENOTEMPTY", f"directory not empty: {path}")
        del parent.entries[name]
        parent.mtime = now
        self._mark_dirty(parent)
        self._unlink_inode(inode)
        return 0

    def utimens(self, path, atime, mtime):
        """Set access and modification times."""
        inode = self._lookup(path)
        inode.atime = atime
        inode.mtime = mtime
        self._mark_attr_dirty(inode)
        return 0

    # ------------------------------------------------------------------
    # File-descriptor calls
    # ------------------------------------------------------------------
    def _allocate_fd(self, inode):
        fd = self._next_fd
        self._next_fd += 1
        self._fd_table[fd] = inode
        inode.nopen += 1
        return fd

    def open(self, path, now=0.0):
        """Open an existing regular file and return a descriptor."""
        inode = self._lookup(path)
        if inode.is_dir:
            raise FileSystemError("EISDIR", f"is a directory: {path}")
        inode.atime = now
        self._mark_attr_dirty(inode)
        return self._allocate_fd(inode)

    def opendir(self, path, now=0.0):
        """Open a directory and return a descriptor."""
        inode = self._lookup(path)
        if not inode.is_dir:
            raise FileSystemError("ENOTDIR", f"not a directory: {path}")
        inode.atime = now
        self._mark_attr_dirty(inode)
        return self._allocate_fd(inode)

    def release(self, fd):
        """Close a file descriptor."""
        inode = self._fd_table.get(fd)
        if inode is None:
            raise FileSystemError("EBADF", f"bad file descriptor: {fd}")
        del self._fd_table[fd]
        inode.nopen -= 1
        self._maybe_dead(inode)
        return 0

    releasedir = release

    def open_descriptors(self):
        """Return the currently open descriptors (for tests and invariants)."""
        return sorted(self._fd_table)

    # ------------------------------------------------------------------
    # Data calls (path-dependent in NetFS's C-Dep)
    # ------------------------------------------------------------------
    def _data_inode(self, path=None, fd=None):
        if fd is not None:
            inode = self._fd_table.get(fd)
            if inode is None:
                raise FileSystemError("EBADF", f"bad file descriptor: {fd}")
            return inode
        return self._lookup(path)

    def read(self, path=None, size=4096, offset=0, fd=None, now=0.0):
        """Read ``size`` bytes at ``offset`` from a file (by path or descriptor)."""
        inode = self._data_inode(path, fd)
        if inode.is_dir:
            raise FileSystemError("EISDIR", "cannot read a directory")
        inode.atime = now
        self._mark_attr_dirty(inode)  # atime is state, but reads ship no data
        return bytes(inode.data[offset:offset + size])

    def write(self, path=None, data=b"", offset=0, fd=None, now=0.0):
        """Write ``data`` at ``offset``, zero-filling any gap; return bytes written."""
        inode = self._data_inode(path, fd)
        if inode.is_dir:
            raise FileSystemError("EISDIR", "cannot write a directory")
        data = bytes(data)
        end = offset + len(data)
        if len(inode.data) < offset:
            inode.data.extend(b"\x00" * (offset - len(inode.data)))
        inode.data[offset:end] = data
        inode.mtime = now
        self._mark_dirty(inode)
        return len(data)

    def truncate(self, path, length, now=0.0):
        """Truncate or extend a file to ``length`` bytes."""
        inode = self._lookup(path)
        if inode.is_dir:
            raise FileSystemError("EISDIR", "cannot truncate a directory")
        if len(inode.data) > length:
            del inode.data[length:]
        else:
            inode.data.extend(b"\x00" * (length - len(inode.data)))
        inode.mtime = now
        self._mark_dirty(inode)
        return 0

    # ------------------------------------------------------------------
    # Metadata calls
    # ------------------------------------------------------------------
    def lstat(self, path):
        """Return a :class:`Stat` for ``path``."""
        inode = self._lookup(path)
        return Stat(
            is_dir=inode.is_dir,
            size=len(inode.data) if not inode.is_dir else 0,
            mode=inode.mode,
            nlink=2 + len(inode.entries) if inode.is_dir else 1,
            atime=inode.atime,
            mtime=inode.mtime,
        )

    getattr_ = lstat

    def access(self, path, mode=0):
        """Return 0 when ``path`` exists (permission bits are not enforced)."""
        self._lookup(path)
        return 0

    def readdir(self, path):
        """Return the sorted entry names of a directory (plus '.' and '..')."""
        inode = self._lookup(path)
        if not inode.is_dir:
            raise FileSystemError("ENOTDIR", f"not a directory: {path}")
        return [".", ".."] + sorted(inode.entries)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _serialise_inode(self, inode):
        """One flat checkpoint record; directory entries reference child inos."""
        return {
            "is_dir": inode.is_dir,
            "mode": inode.mode,
            "atime": inode.atime,
            "mtime": inode.mtime,
            "data": bytes(inode.data),
            "entries": {
                name: child.ino for name, child in sorted(inode.entries.items())
            },
        }

    def checkpoint(self):
        """Return a fully restorable serialisation of the file system.

        Unlike :meth:`tree_snapshot`, the checkpoint captures everything the
        state machine needs to continue deterministically after a restore:
        modes and timestamps, the open-descriptor table (commands delivered
        after the checkpoint may release descriptors opened before it) and
        the descriptor and inode counters.  Inodes are serialised into a
        flat table keyed by stable inode number, so open-but-unlinked files
        survive the round trip and delta checkpoints taken later can name
        inodes from this base.  Delta tracking is left untouched: taking a
        checkpoint does not move the mark.
        """
        records = {}

        def serialise(inode):
            if inode.ino in records:
                return inode.ino
            records[inode.ino] = self._serialise_inode(inode)
            for child in inode.entries.values():
                serialise(child)
            return inode.ino

        root_ino = serialise(self._root)
        fd_table = {fd: serialise(inode) for fd, inode in sorted(self._fd_table.items())}
        return {
            "records": records,
            "root": root_ino,
            "fd_table": fd_table,
            "next_fd": self._next_fd,
            "next_ino": self._next_ino,
        }

    def restore(self, state):
        """Rebuild the file system in place from a :meth:`checkpoint` value.

        Resets delta tracking: the restored state is a fresh base.
        """
        inodes = {
            int(ino): _Inode(
                is_dir=record["is_dir"],
                mode=record["mode"],
                atime=record["atime"],
                mtime=record["mtime"],
                data=bytearray(record["data"]),
                ino=int(ino),
            )
            for ino, record in state["records"].items()
        }
        for ino, record in state["records"].items():
            inodes[int(ino)].entries = {
                name: inodes[int(child)] for name, child in record["entries"].items()
            }
        self._root = inodes[int(state["root"])]
        self._fd_table = {int(fd): inodes[int(ino)] for fd, ino in state["fd_table"].items()}
        self._next_fd = state["next_fd"]
        self._next_ino = state["next_ino"]
        self._inodes = inodes
        self._rebuild_liveness()
        self.clear_delta_tracking()
        return self

    def _rebuild_liveness(self):
        """Recompute ``linked``/``nopen`` from the tree and the fd table."""
        for inode in self._inodes.values():
            inode.linked = False
            inode.nopen = 0
        stack = [self._root]
        while stack:
            inode = stack.pop()
            if inode.linked:
                continue
            inode.linked = True
            stack.extend(inode.entries.values())
        for inode in self._fd_table.values():
            inode.nopen += 1

    # ------------------------------------------------------------------
    # Delta checkpointing
    # ------------------------------------------------------------------
    def delta_checkpoint(self):
        """Serialise only the inodes dirtied since the last tracking mark.

        The delta is ``{"changed", "removed", "fd_table", "next_fd",
        "next_ino"}``: ``changed`` maps dirty inode numbers to records —
        full ones for content changes (a dirty directory's record lists
        all its entries, so entry removals are captured by the parent),
        attr-only ones (no ``data``/``entries`` keys) for inodes that were
        merely touched (atime/mtime), so a read-heavy interval does not
        drag file contents into the delta.  ``removed`` lists inodes that
        died (unlinked with no descriptor left).  The descriptor table is
        small session state and travels whole in every delta.  Applying the
        delta (with :meth:`apply_delta`) to a file system whose contents
        match the state at the mark reproduces this one exactly.  The mark
        moves to now.
        """
        changed = {
            ino: self._serialise_inode(self._inodes[ino])
            for ino in sorted(self._dirty_inos)
        }
        for ino in sorted(self._attr_inos):
            inode = self._inodes[ino]
            changed[ino] = {
                "is_dir": inode.is_dir,
                "mode": inode.mode,
                "atime": inode.atime,
                "mtime": inode.mtime,
            }
        delta = {
            "changed": changed,
            "removed": sorted(self._dead_inos),
            "fd_table": {fd: inode.ino for fd, inode in sorted(self._fd_table.items())},
            "next_fd": self._next_fd,
            "next_ino": self._next_ino,
        }
        self.clear_delta_tracking()
        return delta

    def apply_delta(self, delta):
        """Apply a :meth:`delta_checkpoint` onto this file system.

        The receiver must match the state at the delta's base mark (a
        restored base, possibly advanced by the chain's earlier deltas).
        Installs the delta's cut: tracking restarts afterwards.
        """
        for ino in delta["removed"]:
            self._inodes.pop(int(ino), None)
        for ino, record in delta["changed"].items():
            ino = int(ino)
            inode = self._inodes.get(ino)
            if inode is None:
                # Only full records create inodes: attr-only records always
                # refer to inodes the chain's base already holds.
                inode = _Inode(
                    is_dir=record["is_dir"], mode=record["mode"], ino=ino
                )
                self._inodes[ino] = inode
            inode.is_dir = record["is_dir"]
            inode.mode = record["mode"]
            inode.atime = record["atime"]
            inode.mtime = record["mtime"]
            if "data" in record:
                inode.data = bytearray(record["data"])
        for ino, record in delta["changed"].items():
            if "entries" in record:
                self._inodes[int(ino)].entries = {
                    name: self._inodes[int(child)]
                    for name, child in record["entries"].items()
                }
        self._fd_table = {
            int(fd): self._inodes[int(ino)] for fd, ino in delta["fd_table"].items()
        }
        self._next_fd = delta["next_fd"]
        self._next_ino = delta["next_ino"]
        self._rebuild_liveness()
        self.clear_delta_tracking()
        return self

    def clear_delta_tracking(self):
        """Move the delta-tracking mark to the current state."""
        self._dirty_inos = set()
        self._attr_inos = set()
        self._dead_inos = set()

    # ------------------------------------------------------------------
    # Whole-tree helpers used by tests
    # ------------------------------------------------------------------
    def tree_snapshot(self):
        """Return a nested dict describing the whole tree (for replica comparison).

        Open descriptors are intentionally excluded: they are session state,
        not replicated service state.
        """

        def describe(inode):
            if inode.is_dir:
                return {name: describe(child) for name, child in sorted(inode.entries.items())}
            return bytes(inode.data)

        return describe(self._root)

    def file_count(self):
        """Return the total number of files and directories (excluding the root)."""

        def count(inode):
            if not inode.is_dir:
                return 1
            return 1 + sum(count(child) for child in inode.entries.values())

        return count(self._root) - 1
