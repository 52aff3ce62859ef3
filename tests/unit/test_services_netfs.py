"""Unit tests for the NetFS service layer."""

import pytest

from repro.common.errors import ServiceError
from repro.core.command import Command
from repro.core.descriptor import Keyed, Serial
from repro.services.netfs import (
    NETFS_SPEC,
    NetFSServer,
    PATH_CALLS,
    STRUCTURAL_CALLS,
    path_range,
)


@pytest.fixture
def server():
    server = NetFSServer()
    server.execute("mkdir", {"path": "/data"})
    return server


def test_spec_declares_all_fuse_calls():
    assert set(NETFS_SPEC.command_names()) == set(STRUCTURAL_CALLS) | set(PATH_CALLS)


def test_structural_calls_are_serial():
    for call in STRUCTURAL_CALLS:
        assert isinstance(NETFS_SPEC.routing(call), Serial), call


def test_path_calls_are_keyed_by_path():
    for call in PATH_CALLS:
        routing = NETFS_SPEC.routing(call)
        assert isinstance(routing, Keyed), call
        assert routing.extractor({"path": "/x"}) == "/x"


def test_only_write_among_path_calls_writes():
    assert NETFS_SPEC.writes("write")
    for call in ("access", "lstat", "read", "readdir"):
        assert not NETFS_SPEC.writes(call)


def test_path_range_is_stable_and_bounded():
    assert path_range("/a/b", 8) == path_range("/a/b", 8)
    assert all(0 <= path_range(f"/f{i}", 8) < 8 for i in range(100))


def test_path_range_spreads_paths():
    ranges = {path_range(f"/data/d{i % 16}/file{i}", 8) for i in range(256)}
    assert ranges == set(range(8))


def test_create_write_read_cycle(server):
    fd = server.execute("create", {"path": "/data/f"})
    assert fd >= 3
    server.execute("write", {"path": "/data/f", "data": b"abc", "offset": 0})
    assert server.execute("read", {"path": "/data/f", "size": 10, "offset": 0}) == b"abc"
    server.execute("release", {"fd": fd})


def test_mkdir_readdir_rmdir_cycle(server):
    server.execute("mkdir", {"path": "/data/sub"})
    assert "sub" in server.execute("readdir", {"path": "/data"})
    server.execute("rmdir", {"path": "/data/sub"})
    assert "sub" not in server.execute("readdir", {"path": "/data"})


def test_lstat_and_access(server):
    server.execute("mknod", {"path": "/data/f"})
    stat = server.execute("lstat", {"path": "/data/f"})
    assert stat.size == 0
    assert server.execute("access", {"path": "/data/f"}) == 0


def test_utimens_sets_times(server):
    server.execute("mknod", {"path": "/data/f"})
    server.execute("utimens", {"path": "/data/f", "atime": 1.0, "mtime": 2.0})
    assert server.execute("lstat", {"path": "/data/f"}).mtime == 2.0


def test_opendir_and_releasedir(server):
    fd = server.execute("opendir", {"path": "/data"})
    assert server.execute("releasedir", {"fd": fd}) == 0


def test_unknown_command_raises(server):
    with pytest.raises(ServiceError):
        server.execute("symlink", {"path": "/x"})


def test_apply_returns_error_response_for_fs_errors(server):
    response = server.apply(Command(uid=(0, 0), name="read", args={"path": "/missing"}))
    assert response.error == "ENOENT"
    ok = server.apply(Command(uid=(0, 1), name="readdir", args={"path": "/data"}))
    assert ok.error is None


def test_two_servers_with_same_history_converge():
    history = [
        ("mkdir", {"path": "/d"}),
        ("mknod", {"path": "/d/a"}),
        ("write", {"path": "/d/a", "data": b"payload", "offset": 0}),
        ("mknod", {"path": "/d/b"}),
        ("unlink", {"path": "/d/b"}),
    ]
    first, second = NetFSServer(), NetFSServer()
    for name, args in history:
        first.execute(name, args)
        second.execute(name, args)
    assert first.snapshot() == second.snapshot()


def test_a_path_unlinked_and_recreated_across_cuts_gets_its_new_inode(server):
    """Recreating a path after an unlink allocates a fresh inode; the chain
    removes the old one and installs the new one under the same name."""
    server.execute("mknod", {"path": "/data/f"})
    server.execute("write", {"path": "/data/f", "data": b"old", "offset": 0})
    base = server.checkpoint()
    server.reset_delta_tracking()
    server.execute("unlink", {"path": "/data/f"})
    first = server.delta_checkpoint()
    server.execute("mknod", {"path": "/data/f"})
    server.execute("write", {"path": "/data/f", "data": b"new", "offset": 0})
    second = server.delta_checkpoint()
    assert len(first["fs"]["removed"]) == 1
    assert first["fs"]["removed"][0] not in second["fs"]["changed"]
    assert server.fs._lookup("/data/f").ino in second["fs"]["changed"]
    replica = NetFSServer().restore(base)
    replica.apply_delta(first)
    replica.apply_delta(second)
    assert replica.snapshot() == server.snapshot()
    assert replica.execute("read", {"path": "/data/f", "size": 8}) == b"new"


def test_commands_executed_counter(server):
    before = server.commands_executed
    server.execute("readdir", {"path": "/data"})
    assert server.commands_executed == before + 1
