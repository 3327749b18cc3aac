"""rsync model: incremental semantics, relative paths, cost structure."""

import pytest

from repro.errors import StorageError
from repro.sim import Environment, FairShareLink
from repro.storage.datasets import uniform_files
from repro.storage.filesystem import FileEntry, Filesystem
from repro.storage.rsync import RsyncCostModel, rsync_process

FAST = RsyncCostModel(startup_s=0.0, per_file_s=0.0, stream_bw=1e12)


def make_pair(env, bw=1e9):
    src = Filesystem(env, "src", bw, bw)
    dst = Filesystem(env, "dst", bw, bw)
    return src, dst


def test_transfers_all_files_and_preserves_paths():
    env = Environment()
    src, dst = make_pair(env)
    files = uniform_files(5, 100, prefix="/proj/data")
    src.add_files(files)
    p = env.process(rsync_process(env, src, dst, files, cost=FAST))
    stats = env.run(until=p)
    assert stats.files_transferred == 5
    assert dst.exists("/proj/data/f00000000.bin")  # -R relative paths
    assert dst.total_bytes == 500


def test_non_relative_flattens_to_basename():
    env = Environment()
    src, dst = make_pair(env)
    files = [FileEntry("/deep/tree/file.bin", 10)]
    src.add_files(files)
    p = env.process(rsync_process(env, src, dst, files, cost=FAST, relative=False))
    env.run(until=p)
    assert dst.exists("file.bin")
    assert not dst.exists("/deep/tree/file.bin")


def test_incremental_skips_identical_destination_files():
    env = Environment()
    src, dst = make_pair(env)
    files = uniform_files(4, 100)
    src.add_files(files)
    dst.add_files(files[:2])  # already present, same size
    p = env.process(rsync_process(env, src, dst, files, cost=FAST))
    stats = env.run(until=p)
    assert stats.files_skipped == 2
    assert stats.files_transferred == 2
    assert stats.bytes_transferred == 200


def test_size_mismatch_retransfers():
    env = Environment()
    src, dst = make_pair(env)
    files = [FileEntry("/f", 100)]
    src.add_files(files)
    dst.add_file("/f", 50)  # stale partial copy
    p = env.process(rsync_process(env, src, dst, files, cost=FAST))
    stats = env.run(until=p)
    assert stats.files_transferred == 1


def test_missing_source_raises():
    env = Environment()
    src, dst = make_pair(env)
    p = env.process(rsync_process(env, src, dst, [FileEntry("/ghost", 1)], cost=FAST))
    with pytest.raises(StorageError):
        env.run(until=p)


def test_delete_source_mode():
    env = Environment()
    src, dst = make_pair(env)
    files = uniform_files(3, 10)
    src.add_files(files)
    p = env.process(
        rsync_process(env, src, dst, files, cost=FAST, delete_source=True)
    )
    env.run(until=p)
    assert src.file_count == 0 and dst.file_count == 3


def test_startup_and_per_file_costs_accrue():
    env = Environment()
    src, dst = make_pair(env, bw=1e15)
    files = uniform_files(10, 1)
    src.add_files(files)
    cost = RsyncCostModel(startup_s=2.0, per_file_s=0.5, stream_bw=1e15)
    p = env.process(rsync_process(env, src, dst, files, cost=cost))
    stats = env.run(until=p)
    # 2 s startup + 10 * 0.5 s per-file (data time negligible).
    assert stats.duration == pytest.approx(7.0, abs=0.01)


def test_stream_bandwidth_ceiling():
    env = Environment()
    src, dst = make_pair(env, bw=1e12)
    files = [FileEntry("/big", 1000)]
    src.add_files(files)
    cost = RsyncCostModel(startup_s=0.0, per_file_s=0.0, stream_bw=100.0)
    p = env.process(rsync_process(env, src, dst, files, cost=cost))
    stats = env.run(until=p)
    assert stats.duration == pytest.approx(10.0)
    assert stats.throughput == pytest.approx(100.0)


def test_nic_throttling():
    env = Environment()
    src, dst = make_pair(env, bw=1e12)
    nic = FairShareLink(env, rate=50.0)
    files = [FileEntry("/big", 1000)]
    src.add_files(files)
    p = env.process(
        rsync_process(env, src, dst, files, cost=FAST, nic=nic)
    )
    stats = env.run(until=p)
    assert stats.duration == pytest.approx(20.0)


def test_parallel_rsyncs_share_destination_bandwidth():
    env = Environment()
    src = Filesystem(env, "src", 1e12, 1e12)
    dst = Filesystem(env, "dst", 1e12, 100.0)
    a = uniform_files(1, 500, prefix="/a")
    b = uniform_files(1, 500, prefix="/b")
    src.add_files(a)
    src.add_files(b)
    pa = env.process(rsync_process(env, src, dst, a, cost=FAST))
    pb = env.process(rsync_process(env, src, dst, b, cost=FAST))
    env.run()
    # Two 500-byte writes share 100 B/s -> both finish at 10 s.
    assert env.now == pytest.approx(10.0)
