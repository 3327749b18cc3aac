"""Real-filesystem transfer primitives: one kernel copy, sizes, pruning.

Every copy is one ``shutil.copy2`` (a kernel ``sendfile`` on Linux); a
user-space copy loop would hold its blocks in the coordinator's heap, so
the scan at the bottom keeps ``pread``/``pwrite``/``copyfileobj`` out of
``src/`` and ``copy2`` inside ``storage/transfer.py``.
"""

import os
import tracemalloc

import pytest

from repro.errors import StagingError
from repro.storage.transfer import copy_file, remote_relpath, remove_files
from tests.test_spawn_sites import SRC, _offenders

TRANSFER = SRC / "repro" / "storage" / "transfer.py"

#: A multi-MiB payload with an odd tail.
BIG = (8 << 20) + 12345


class TestCopyFile:
    def test_returns_source_size(self, tmp_path):
        src = tmp_path / "a.bin"
        src.write_bytes(b"x" * 1234)
        dest = tmp_path / "sub" / "a.bin"
        assert copy_file(str(src), str(dest)) == 1234
        assert dest.read_bytes() == b"x" * 1234

    def test_missing_source_raises_staging_error(self, tmp_path):
        with pytest.raises(StagingError):
            copy_file(str(tmp_path / "nope"), str(tmp_path / "d"))

    def test_directory_source_raises_staging_error(self, tmp_path):
        with pytest.raises(StagingError):
            copy_file(str(tmp_path), str(tmp_path / "d"))

    def test_same_path_noop(self, tmp_path):
        src = tmp_path / "a.bin"
        src.write_bytes(b"hello")
        assert copy_file(str(src), str(src)) == 5
        assert src.read_bytes() == b"hello"

    def test_multi_stream_copy_is_byte_identical(self, tmp_path):
        payload = os.urandom(BIG)
        src = tmp_path / "big.bin"
        src.write_bytes(payload)
        dest = tmp_path / "out" / "big.bin"
        assert copy_file(str(src), str(dest)) == len(payload)
        assert dest.read_bytes() == payload

    def test_streamed_copy_preserves_mode(self, tmp_path):
        src = tmp_path / "exe.bin"
        src.write_bytes(os.urandom(BIG))
        os.chmod(src, 0o755)
        os.utime(src, ns=(1_000_000_000, 1_234_567_890_000))
        dest = tmp_path / "exe.out"
        copy_file(str(src), str(dest))
        st = os.stat(dest)
        assert st.st_mode & 0o777 == 0o755
        assert st.st_mtime_ns == 1_234_567_890_000

    def test_overwrites_larger_existing_dest(self, tmp_path):
        payload = os.urandom(BIG)
        src = tmp_path / "small.bin"
        src.write_bytes(payload)
        dest = tmp_path / "dest.bin"
        dest.write_bytes(b"z" * (2 * BIG))  # stale, larger
        copy_file(str(src), str(dest))
        assert dest.read_bytes() == payload

    def test_copy_holds_no_python_buffer(self, tmp_path):
        src = tmp_path / "basefile.bin"
        with open(src, "wb") as fh:
            fh.truncate(16 << 20)
        tracemalloc.start()
        try:
            copy_file(str(src), str(tmp_path / "out.bin"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, f"copy_file traced a {peak >> 10} KiB peak"
        assert os.path.getsize(tmp_path / "out.bin") == 16 << 20


class TestRemoveFiles:
    def test_removes_and_counts(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.write_text("1")
        b.write_text("2")
        assert remove_files([str(a), str(b), str(tmp_path / "ghost")]) == 2
        assert not a.exists() and not b.exists()

    def test_prunes_empty_parents_up_to_root(self, tmp_path):
        root = tmp_path / "work"
        leaf = root / "in" / "deep" / "f.txt"
        leaf.parent.mkdir(parents=True)
        leaf.write_text("x")
        assert remove_files([str(leaf)], root=str(root)) == 1
        assert not (root / "in").exists()
        assert root.exists()  # the root itself is never pruned

    def test_stops_at_nonempty_parent(self, tmp_path):
        root = tmp_path / "work"
        d = root / "in"
        d.mkdir(parents=True)
        (d / "keep.txt").write_text("keep")
        (d / "gone.txt").write_text("x")
        remove_files([str(d / "gone.txt")], root=str(root))
        assert (d / "keep.txt").exists()
        assert d.exists()

    def test_sibling_root_prefix_not_pruned(self, tmp_path):
        # root "d" must never prune inside sibling "d2" even though
        # "d2".startswith("d"): containment is component-wise.
        root = tmp_path / "d"
        root.mkdir()
        sib = tmp_path / "d2" / "sub"
        sib.mkdir(parents=True)
        f = sib / "f.txt"
        f.write_text("x")
        remove_files([str(f)], root=str(root))
        assert sib.exists()  # outside root: left alone

    def test_no_root_no_pruning(self, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        f = d / "f.txt"
        f.write_text("x")
        remove_files([str(f)])
        assert d.exists()


class TestRemoteRelpath:
    def test_strips_leading_slash_and_dot(self):
        assert remote_relpath("/data/a.txt") == "data/a.txt"
        assert remote_relpath("./in/x") == "in/x"

    def test_rejects_escapes(self):
        with pytest.raises(StagingError):
            remote_relpath("../x")
        with pytest.raises(StagingError):
            remote_relpath("a/../../x")

    def test_empty_rejected(self):
        with pytest.raises(StagingError):
            remote_relpath("/")


def test_no_user_space_copy_loop_under_src():
    offenders = _offenders(("os.pread(", "os.pwrite(", "shutil.copyfileobj("), set())
    assert not offenders, "user-space copy loop under src/:\n" + "\n".join(offenders)


def test_copy2_only_in_transfer_module():
    assert TRANSFER.is_file()
    offenders = _offenders(("shutil.copy2(",), {TRANSFER})
    assert not offenders, "shutil.copy2 outside storage/transfer.py:\n" + "\n".join(offenders)
