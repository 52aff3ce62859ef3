"""Unit tests for the in-memory file system."""

import pytest

from repro.common.errors import FileSystemError
from repro.fs import MemoryFileSystem
from repro.fs.memfs import split_path


@pytest.fixture
def fs():
    return MemoryFileSystem()


# ----------------------------------------------------------------------
# Path handling
# ----------------------------------------------------------------------
def test_split_path_requires_absolute_paths():
    with pytest.raises(FileSystemError):
        split_path("relative/path")


def test_split_path_rejects_dot_components():
    with pytest.raises(FileSystemError):
        split_path("/a/../b")


def test_split_path_ignores_duplicate_slashes():
    assert split_path("//a///b/") == ["a", "b"]


# ----------------------------------------------------------------------
# Directories
# ----------------------------------------------------------------------
def test_mkdir_and_readdir(fs):
    fs.mkdir("/docs")
    assert fs.readdir("/") == [".", "..", "docs"]


def test_mkdir_missing_parent_fails(fs):
    with pytest.raises(FileSystemError) as err:
        fs.mkdir("/a/b")
    assert err.value.errno_name == "ENOENT"


def test_mkdir_existing_path_fails(fs):
    fs.mkdir("/docs")
    with pytest.raises(FileSystemError) as err:
        fs.mkdir("/docs")
    assert err.value.errno_name == "EEXIST"


def test_rmdir_removes_empty_directory(fs):
    fs.mkdir("/docs")
    fs.rmdir("/docs")
    assert not fs.exists("/docs")


def test_rmdir_non_empty_directory_fails(fs):
    fs.mkdir("/docs")
    fs.mknod("/docs/file")
    with pytest.raises(FileSystemError) as err:
        fs.rmdir("/docs")
    assert err.value.errno_name == "ENOTEMPTY"


def test_rmdir_on_file_fails(fs):
    fs.mknod("/file")
    with pytest.raises(FileSystemError) as err:
        fs.rmdir("/file")
    assert err.value.errno_name == "ENOTDIR"


def test_readdir_on_file_fails(fs):
    fs.mknod("/file")
    with pytest.raises(FileSystemError):
        fs.readdir("/file")


def test_readdir_sorts_entries(fs):
    fs.mkdir("/d")
    for name in ("zeta", "alpha", "mid"):
        fs.mknod(f"/d/{name}")
    assert fs.readdir("/d") == [".", "..", "alpha", "mid", "zeta"]


# ----------------------------------------------------------------------
# Files: create/mknod/unlink
# ----------------------------------------------------------------------
def test_mknod_creates_empty_file(fs):
    fs.mknod("/file")
    stat = fs.lstat("/file")
    assert not stat.is_dir
    assert stat.size == 0


def test_create_returns_open_descriptor(fs):
    fd = fs.create("/file")
    assert fd >= 3
    assert fd in fs.open_descriptors()


def test_mknod_duplicate_fails(fs):
    fs.mknod("/file")
    with pytest.raises(FileSystemError):
        fs.mknod("/file")


def test_unlink_removes_file(fs):
    fs.mknod("/file")
    fs.unlink("/file")
    assert not fs.exists("/file")


def test_unlink_directory_fails(fs):
    fs.mkdir("/docs")
    with pytest.raises(FileSystemError) as err:
        fs.unlink("/docs")
    assert err.value.errno_name == "EISDIR"


def test_unlink_missing_file_fails(fs):
    with pytest.raises(FileSystemError) as err:
        fs.unlink("/missing")
    assert err.value.errno_name == "ENOENT"


# ----------------------------------------------------------------------
# Open/release and descriptors
# ----------------------------------------------------------------------
def test_open_missing_file_fails(fs):
    with pytest.raises(FileSystemError):
        fs.open("/missing")


def test_open_directory_fails(fs):
    fs.mkdir("/docs")
    with pytest.raises(FileSystemError) as err:
        fs.open("/docs")
    assert err.value.errno_name == "EISDIR"


def test_opendir_on_file_fails(fs):
    fs.mknod("/file")
    with pytest.raises(FileSystemError):
        fs.opendir("/file")


def test_release_frees_descriptor(fs):
    fd = fs.create("/file")
    fs.release(fd)
    assert fd not in fs.open_descriptors()


def test_release_bad_descriptor_fails(fs):
    with pytest.raises(FileSystemError) as err:
        fs.release(42)
    assert err.value.errno_name == "EBADF"


def test_read_write_via_descriptor(fs):
    fd = fs.create("/file")
    fs.write(fd=fd, data=b"hello")
    assert fs.read(fd=fd, size=10) == b"hello"


# ----------------------------------------------------------------------
# Read/write/truncate
# ----------------------------------------------------------------------
def test_write_then_read_roundtrip(fs):
    fs.mknod("/file")
    written = fs.write(path="/file", data=b"abcdef", offset=0)
    assert written == 6
    assert fs.read(path="/file", size=6, offset=0) == b"abcdef"


def test_write_at_offset_zero_fills_gap(fs):
    fs.mknod("/file")
    fs.write(path="/file", data=b"xy", offset=4)
    assert fs.read(path="/file", size=10) == b"\x00\x00\x00\x00xy"


def test_partial_overwrite(fs):
    fs.mknod("/file")
    fs.write(path="/file", data=b"abcdef")
    fs.write(path="/file", data=b"ZZ", offset=2)
    assert fs.read(path="/file", size=6) == b"abZZef"


def test_read_beyond_end_returns_short(fs):
    fs.mknod("/file")
    fs.write(path="/file", data=b"abc")
    assert fs.read(path="/file", size=100, offset=2) == b"c"


def test_write_to_directory_fails(fs):
    fs.mkdir("/docs")
    with pytest.raises(FileSystemError):
        fs.write(path="/docs", data=b"oops")


def test_truncate_shrinks_and_extends(fs):
    fs.mknod("/file")
    fs.write(path="/file", data=b"abcdef")
    fs.truncate("/file", 3)
    assert fs.read(path="/file", size=10) == b"abc"
    fs.truncate("/file", 5)
    assert fs.read(path="/file", size=10) == b"abc\x00\x00"


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------
def test_lstat_reports_size_and_kind(fs):
    fs.mkdir("/docs")
    fs.mknod("/docs/file")
    fs.write(path="/docs/file", data=b"12345")
    file_stat = fs.lstat("/docs/file")
    dir_stat = fs.lstat("/docs")
    assert file_stat.size == 5 and not file_stat.is_dir
    assert dir_stat.is_dir and dir_stat.nlink == 3


def test_access_existing_and_missing(fs):
    fs.mknod("/file")
    assert fs.access("/file") == 0
    with pytest.raises(FileSystemError):
        fs.access("/missing")


def test_utimens_sets_times(fs):
    fs.mknod("/file")
    fs.utimens("/file", atime=1.5, mtime=2.5)
    stat = fs.lstat("/file")
    assert stat.atime == 1.5
    assert stat.mtime == 2.5


def test_write_updates_mtime(fs):
    fs.mknod("/file", now=1.0)
    fs.write(path="/file", data=b"x", now=7.0)
    assert fs.lstat("/file").mtime == 7.0


# ----------------------------------------------------------------------
# Whole-tree helpers
# ----------------------------------------------------------------------
def test_tree_snapshot_describes_structure(fs):
    fs.mkdir("/a")
    fs.mknod("/a/f")
    fs.write(path="/a/f", data=b"data")
    assert fs.tree_snapshot() == {"a": {"f": b"data"}}


def test_snapshot_excludes_descriptor_state(fs):
    fs.mknod("/f")
    before = fs.tree_snapshot()
    fd = fs.open("/f")
    assert fs.tree_snapshot() == before
    fs.release(fd)


def test_file_count(fs):
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.mknod("/a/b/c")
    assert fs.file_count() == 3


def test_read_only_interval_yields_attr_only_delta(fs):
    """Reads and opens dirty only timestamps: the delta ships small
    attr-only records, not file contents."""
    from repro.common import codec

    fs.mkdir("/d")
    fs.mknod("/d/f")
    fs.write(path="/d/f", data=b"x" * 4096)
    base = fs.checkpoint()
    fs.clear_delta_tracking()
    for step in range(10):
        fs.read(path="/d/f", size=4096, now=float(step))
    fd = fs.open("/d/f", now=11.0)
    delta = fs.delta_checkpoint()
    # The 4 KiB of data crossed no wire: only attrs and the fd table did.
    assert len(codec.encode(delta)) < 1024
    record = delta["changed"][fs._lookup("/d/f").ino]
    assert "data" not in record and "entries" not in record
    assert record["atime"] == 11.0

    from repro.fs.memfs import MemoryFileSystem

    restored = MemoryFileSystem()
    restored.restore(base)
    restored.apply_delta(delta)
    assert restored.tree_snapshot() == fs.tree_snapshot()
    assert restored.open_descriptors() == fs.open_descriptors()
    assert restored.lstat("/d/f") == fs.lstat("/d/f")
    assert restored.read(fd=fd, size=8) == b"x" * 8


def test_content_change_promotes_attr_dirty_inode(fs):
    fs.mknod("/f")
    fs.write(path="/f", data=b"before")
    base = fs.checkpoint()
    fs.clear_delta_tracking()
    fs.read(path="/f", now=1.0)        # attr tier
    fs.write(path="/f", data=b"after", now=2.0)  # promoted to content tier
    delta = fs.delta_checkpoint()
    record = delta["changed"][fs._lookup("/f").ino]
    assert record["data"] == b"aftere"  # write overlays, it does not truncate

    from repro.fs.memfs import MemoryFileSystem

    restored = MemoryFileSystem().restore(base)
    restored.apply_delta(delta)
    assert restored.tree_snapshot() == fs.tree_snapshot()


def test_each_delta_starts_where_the_last_one_ended(fs):
    fs.mknod("/f")
    base = fs.checkpoint()
    fs.clear_delta_tracking()
    fs.write(path="/f", data=b"data", now=1.0)
    first = fs.delta_checkpoint()
    assert fs._lookup("/f").ino in first["changed"]
    second = fs.delta_checkpoint()
    assert second["changed"] == {} and second["removed"] == []

    from repro.fs.memfs import MemoryFileSystem

    restored = MemoryFileSystem().restore(base)
    restored.apply_delta(first)
    restored.apply_delta(second)
    assert restored.tree_snapshot() == fs.tree_snapshot()


def test_an_unlinked_file_lives_in_the_chain_until_its_last_release(fs):
    """Unlinking an open file only drops its name: the inode stays behind
    the descriptor at that cut and is listed as removed at the cut after
    its last release."""
    from repro.fs.memfs import MemoryFileSystem

    fs.mkdir("/d")
    fd = fs.create("/d/f")
    fs.write(fd=fd, data=b"abc")
    ino = fs._lookup("/d/f").ino
    base = fs.checkpoint()
    fs.clear_delta_tracking()
    fs.release(fs.open("/d/f"))  # a descriptor number used up in between
    fs.unlink("/d/f")
    first = fs.delta_checkpoint()
    assert first["removed"] == []
    assert first["fd_table"] == {fd: ino}
    restored = MemoryFileSystem().restore(base)
    restored.apply_delta(first)
    assert restored.tree_snapshot() == fs.tree_snapshot()
    assert restored.read(fd=fd, size=3) == b"abc"
    fs.release(fd)
    second = fs.delta_checkpoint()
    assert second["removed"] == [ino]
    assert second["fd_table"] == {}
    restored.apply_delta(second)
    assert restored.tree_snapshot() == fs.tree_snapshot()
    assert restored.open_descriptors() == fs.open_descriptors()
    # The descriptor and inode counters travelled too: the next file and
    # descriptor are numbered alike on both sides.
    assert restored.create("/d/g") == fs.create("/d/g")
    assert restored.tree_snapshot() == fs.tree_snapshot()
