"""NetFS: the networked file system service (paper sections V-B and VI-C).

NetFS implements the subset of FUSE calls needed to manipulate files and
directories (no links).  Dependencies, per the paper:

* ``create``, ``mknod``, ``mkdir``, ``unlink``, ``rmdir``, ``open``,
  ``utimens``, ``release``, ``opendir``, ``releasedir`` change the structure
  of the file-system tree or touch the shared descriptor table, so they
  depend on **all** calls;
* ``access``, ``lstat``, ``read``, ``write``, ``readdir`` depend on the
  calls above and on each other when they use the same file path.

The paper's deployment partitions paths into eight ranges, one per worker
thread, plus one group for serialised requests; here the per-path routing is
expressed with a :class:`Keyed` declaration whose conflict key is the path
(hashing a path and hashing its range are equivalent partitionings), and
:func:`path_range` reproduces the explicit range construction when a fixed
number of ranges is wanted.
"""

from repro.common.errors import FileSystemError, ServiceError
from repro.core.cdep import CDep
from repro.core.command import Response
from repro.core.descriptor import CommandDescriptor, Keyed, Serial, ServiceSpec
from repro.fs import MemoryFileSystem

#: Calls that change the file-system structure or the shared fd table.
STRUCTURAL_CALLS = (
    "create",
    "mknod",
    "mkdir",
    "unlink",
    "rmdir",
    "open",
    "utimens",
    "release",
    "opendir",
    "releasedir",
)

#: Calls whose dependencies are keyed by the file path.
PATH_CALLS = ("access", "lstat", "read", "write", "readdir")


def path_range(path, num_ranges):
    """Map a path to one of ``num_ranges`` ranges (the paper's 8 path ranges)."""
    digest = 0
    for ch in path:
        digest = (digest * 131 + ord(ch)) & 0x7FFFFFFF
    return digest % num_ranges


def _path_of(args):
    return args["path"]


def build_netfs_spec():
    """Build NetFS's :class:`ServiceSpec`."""
    descriptors = []
    for name in STRUCTURAL_CALLS:
        descriptors.append(
            CommandDescriptor(
                name=name,
                params=(("path", "str"),),
                writes=True,
                routing=Serial(),
                doc=f"FUSE call {name} (structural / descriptor-table access).",
            )
        )
    writes_by_call = {"write": True}
    for name in PATH_CALLS:
        descriptors.append(
            CommandDescriptor(
                name=name,
                params=(("path", "str"),),
                writes=writes_by_call.get(name, False),
                routing=Keyed(extractor=_path_of, domain="path"),
                doc=f"FUSE call {name} (per-path access).",
            )
        )
    return ServiceSpec("netfs", descriptors).validate()


NETFS_SPEC = build_netfs_spec()

#: NetFS's C-Dep, derived from the routing declarations.
NETFS_CDEP = CDep.from_service(NETFS_SPEC)


class NetFSServer:
    """The deterministic file-system state machine executed by every replica."""

    def __init__(self, filesystem=None):
        self.fs = filesystem if filesystem is not None else MemoryFileSystem()
        self.commands_executed = 0

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def execute(self, name, args):
        """Execute one FUSE-style call; return its result.

        ``now`` (a deterministic logical timestamp provided by the caller)
        replaces wall-clock time so replicas stay identical.
        """
        self.commands_executed += 1
        fs = self.fs
        path = args.get("path")
        now = args.get("now", 0.0)
        if name == "create":
            return fs.create(path, args.get("mode", 0o644), now)
        if name == "mknod":
            return fs.mknod(path, args.get("mode", 0o644), now)
        if name == "mkdir":
            return fs.mkdir(path, args.get("mode", 0o755), now)
        if name == "unlink":
            return fs.unlink(path, now)
        if name == "rmdir":
            return fs.rmdir(path, now)
        if name == "open":
            return fs.open(path, now)
        if name == "opendir":
            return fs.opendir(path, now)
        if name == "release":
            return fs.release(args["fd"])
        if name == "releasedir":
            return fs.releasedir(args["fd"])
        if name == "utimens":
            return fs.utimens(path, args.get("atime", now), args.get("mtime", now))
        if name == "access":
            return fs.access(path, args.get("mode", 0))
        if name == "lstat":
            return fs.lstat(path)
        if name == "read":
            return fs.read(
                path=path,
                size=args.get("size", 4096),
                offset=args.get("offset", 0),
                now=now,
            )
        if name == "write":
            return fs.write(
                path=path,
                data=args.get("data", b""),
                offset=args.get("offset", 0),
                now=now,
            )
        if name == "readdir":
            return fs.readdir(path)
        raise ServiceError(f"unknown NetFS command: {name!r}")

    def apply(self, command):
        """Execute a :class:`~repro.core.command.Command`; return a Response."""
        try:
            value = self.execute(command.name, command.args)
            return Response(uid=command.uid, value=value)
        except FileSystemError as error:
            return Response(uid=command.uid, error=error.errno_name)

    # ------------------------------------------------------------------
    # Checkpointing (recovery contract shared by every service)
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Return a restorable serialisation of the full service state.

        Includes the open-descriptor table (via the file system checkpoint):
        a recovered replica must honour ``release`` calls on descriptors
        opened before the checkpoint was taken.
        """
        return {
            "fs": self.fs.checkpoint(),
            "commands_executed": self.commands_executed,
        }

    def restore(self, state):
        """Rebuild the service in place from a :meth:`checkpoint` value."""
        self.fs.restore(state["fs"])
        self.commands_executed = state["commands_executed"]
        return self

    def delta_checkpoint(self):
        """Serialise only the inodes dirtied since the last tracking mark.

        Applying the result (with :meth:`apply_delta`) to a replica whose
        state matches the mark reproduces this replica exactly, open
        descriptors included.  The mark moves to now.
        """
        return {
            "fs": self.fs.delta_checkpoint(),
            "commands_executed": self.commands_executed,
        }

    def apply_delta(self, state):
        """Advance the service from a chain base by one :meth:`delta_checkpoint`."""
        self.fs.apply_delta(state["fs"])
        self.commands_executed = state["commands_executed"]
        return self

    def reset_delta_tracking(self):
        """Move the delta-tracking mark to the current state (a new full base)."""
        self.fs.clear_delta_tracking()

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def snapshot(self):
        return self.fs.tree_snapshot()
