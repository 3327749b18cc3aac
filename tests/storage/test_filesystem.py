"""Filesystem model: namespace, bandwidth sharing, metadata costs."""

import pytest

from repro.errors import StorageError
from repro.sim import Environment
from repro.storage.filesystem import FileEntry, Filesystem, make_lustre, make_nvme


def test_namespace_add_exists_size_remove():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)
    fs.add_file("/a/b", 10)
    assert fs.exists("/a/b")
    assert fs.size_of("/a/b") == 10
    fs.remove("/a/b")
    assert not fs.exists("/a/b")


def test_size_of_missing_raises():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)
    with pytest.raises(StorageError):
        fs.size_of("/missing")


def test_remove_missing_raises():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)
    with pytest.raises(StorageError):
        fs.remove("/missing")


def test_negative_size_rejected():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)
    with pytest.raises(StorageError):
        fs.add_file("/x", -1)
    with pytest.raises(StorageError):
        FileEntry("/x", -1)


def test_list_files_prefix_and_sorted():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)
    fs.add_files([FileEntry("/b/2", 2), FileEntry("/a/1", 1), FileEntry("/b/1", 3)])
    assert [e.path for e in fs.list_files("/b")] == ["/b/1", "/b/2"]
    assert fs.total_bytes == 6
    assert fs.file_count == 3


def test_read_write_timed_by_bandwidth():
    env = Environment()
    fs = Filesystem(env, "t", read_bw=100.0, write_bw=50.0)
    done = {}

    def proc():
        yield fs.read(1000.0)
        done["read"] = env.now
        yield fs.write(1000.0)
        done["write"] = env.now

    env.process(proc())
    env.run()
    assert done["read"] == pytest.approx(10.0)
    assert done["write"] == pytest.approx(10.0 + 20.0)


def test_concurrent_writers_share_bandwidth():
    env = Environment()
    fs = Filesystem(env, "t", read_bw=100.0, write_bw=100.0)
    ends = []

    def writer():
        yield fs.write(500.0)
        ends.append(env.now)

    env.process(writer())
    env.process(writer())
    env.run()
    assert ends == [pytest.approx(10.0), pytest.approx(10.0)]


def test_metadata_ops_serialize():
    env = Environment()
    fs = Filesystem(env, "t", 1e9, 1e9, metadata_rate=10.0)
    ends = []

    def proc():
        yield fs.metadata_op()
        ends.append(env.now)

    for _ in range(5):
        env.process(proc())
    env.run()
    # 10 ops/s -> one every 0.1 s, serialized.
    assert ends == [pytest.approx(0.1 * (i + 1)) for i in range(5)]


def test_create_combines_metadata_and_write():
    env = Environment()
    fs = Filesystem(env, "t", 1e9, 100.0, metadata_rate=10.0)

    def proc():
        yield from fs.create("/new", 500)

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(0.1 + 5.0)
    assert fs.exists("/new")


def test_counters():
    env = Environment()
    fs = Filesystem(env, "t", 100.0, 100.0)

    def proc():
        yield fs.read(1)
        yield fs.write(1)
        yield fs.metadata_op()

    env.process(proc())
    env.run()
    assert (fs.n_reads, fs.n_writes, fs.n_metadata_ops) == (1, 1, 1)


def test_presets():
    env = Environment()
    lustre = make_lustre(env)
    nvme = make_nvme(env)
    assert lustre.read_link.max_flows == 512
    assert nvme.read_link.max_flows is None
    assert lustre.name == "lustre"
