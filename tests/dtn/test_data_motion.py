"""DTN parallel data motion vs the sequential baseline."""

import pytest

from repro.cluster import DTN_CLUSTER, SimMachine
from repro.dtn import run_dtn_transfer, run_sequential_transfer
from repro.errors import ReproError
from repro.sim import Environment
from repro.storage.datasets import lognormal_tree, uniform_files
from repro.storage.filesystem import Filesystem
from repro.storage.rsync import RsyncCostModel


def setup_machine():
    env = Environment()
    machine = SimMachine(env, DTN_CLUSTER, with_lustre=False)
    src = Filesystem(env, "gpfs", 1e12, 1e12, metadata_rate=1e5, max_flows=512)
    dst = Filesystem(env, "lustre", 1e12, 1e12, metadata_rate=1e5, max_flows=512)
    return env, machine, src, dst


def test_parallel_transfer_moves_everything():
    env, machine, src, dst = setup_machine()
    files = uniform_files(200, 10 * 1024**2, prefix="/gpfs/proj/data")
    src.add_files(files)
    report = run_dtn_transfer(machine, src, dst, files, n_nodes=4, streams_per_node=8)
    assert dst.file_count == 200
    assert report.total_bytes == sum(f.size for f in files)
    assert report.duration > 0


def test_shards_balanced_across_nodes():
    env, machine, src, dst = setup_machine()
    files = uniform_files(160, 1024, prefix="/gpfs/p")
    src.add_files(files)
    report = run_dtn_transfer(machine, src, dst, files, n_nodes=8, streams_per_node=4)
    assert len(report.per_node_bytes) == 8
    assert max(report.per_node_bytes) == min(report.per_node_bytes)


def test_parallel_beats_sequential_heavily_on_many_small_files():
    files = lognormal_tree(600, mean_size=4 * 1024**2, seed=2)
    cost = RsyncCostModel(startup_s=0.3, per_file_s=0.025, stream_bw=150e6)

    env, machine, src, dst = setup_machine()
    src.add_files(files)
    seq = run_sequential_transfer(machine, src, dst, files, cost=cost)

    env2, machine2, src2, dst2 = setup_machine()
    src2.add_files(files)
    par = run_dtn_transfer(
        machine2, src2, dst2, files, n_nodes=8, streams_per_node=32, cost=cost
    )
    # The win grows with file count (the 200x paper number is at petabyte
    # scale); at this test's size an order of magnitude is the bar.
    assert par.duration < seq.duration / 8
    assert dst2.file_count == 600


def test_restart_after_partial_transfer_skips_done_files():
    env, machine, src, dst = setup_machine()
    files = uniform_files(50, 1024**2, prefix="/gpfs/q")
    src.add_files(files)
    dst.add_files(files[:30])  # a previous run moved 30 already
    report = run_dtn_transfer(machine, src, dst, files, n_nodes=2, streams_per_node=4)
    transferred = sum(s.files_transferred for s in report.rsync_stats)
    skipped = sum(s.files_skipped for s in report.rsync_stats)
    assert transferred == 20 and skipped == 30


def test_validation():
    env, machine, src, dst = setup_machine()
    with pytest.raises(ReproError):
        run_dtn_transfer(machine, src, dst, [], n_nodes=0)


def test_throughput_metrics():
    env, machine, src, dst = setup_machine()
    files = uniform_files(64, 10 * 1024**2, prefix="/gpfs/r")
    src.add_files(files)
    report = run_dtn_transfer(machine, src, dst, files, n_nodes=4, streams_per_node=8)
    assert report.aggregate_mbit_s > 0
    assert report.per_node_mbit_s == pytest.approx(report.aggregate_mbit_s / 4)
