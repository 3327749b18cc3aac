"""Generic staged-prefetch pipeline with configurable depth."""

import pytest

from repro.errors import StorageError
from repro.sim import Environment
from repro.storage.filesystem import Filesystem
from repro.storage.staging import StagingConfig, run_staging_pipeline

GB = 1024**3

# The Darshan calibration expressed generically: shared-FS stage 86 min,
# local stage 68 min, 44-minute copies.
CFG = dict(
    n_datasets=5,
    dataset_bytes=1320 * GB,
    compute_s=64 * 60.0,
    shared_client_bw=1.0 * GB,
    copy_bw=0.5 * GB,
)


def run(depth, n_datasets=5):
    env = Environment()
    shared = Filesystem(env, "shared", 1e13, 1e13, max_flows=512)
    local = Filesystem(env, "local", 5.5 * GB, 3.5 * GB)
    cfg = StagingConfig(**{**CFG, "n_datasets": n_datasets, "depth": depth})
    return run_staging_pipeline(env, shared, local, cfg)


def test_depth0_matches_all_shared_baseline():
    report = run(depth=0)
    assert report.shared_fs_stages == 5
    assert report.total_time / 60 == pytest.approx(430, rel=0.02)


def test_depth1_matches_paper_pipeline():
    report = run(depth=1)
    assert report.shared_fs_stages == 1
    assert report.total_time / 60 == pytest.approx(358, rel=0.02)
    assert report.stage_times[0] / 60 == pytest.approx(86, rel=0.03)
    for t in report.stage_times[1:]:
        assert t / 60 == pytest.approx(68, rel=0.03)


def test_depth2_no_faster_when_copies_hide():
    d1 = run(depth=1)
    d2 = run(depth=2)
    # Copies (44 min) already hide behind 68-min stages: extra lookahead
    # cannot shorten the critical path.
    assert d2.total_time == pytest.approx(d1.total_time, rel=0.01)


def test_deeper_prefetch_helps_when_copies_are_slow():
    def run_slow(depth):
        env = Environment()
        shared = Filesystem(env, "shared", 1e13, 1e13)
        local = Filesystem(env, "local", 1e13, 1e13)
        cfg = StagingConfig(
            n_datasets=6, dataset_bytes=100 * GB, compute_s=60.0,
            shared_client_bw=1.0 * GB,
            copy_bw=0.5 * GB,  # 200 s copy vs 160 s local stage: copies lag
            depth=depth,
        )
        return run_staging_pipeline(env, shared, local, cfg)

    d1 = run_slow(1)
    d3 = run_slow(3)
    assert d3.total_time < d1.total_time  # lookahead pays off here


def test_capacity_respected():
    report = run(depth=1)
    assert report.peak_local_datasets <= 2  # depth + processing slot
    report3 = run(depth=3)
    assert report3.peak_local_datasets <= 4


def test_single_dataset():
    report = run(depth=1, n_datasets=1)
    assert report.shared_fs_stages == 1
    assert len(report.stage_times) == 1


def test_validation():
    with pytest.raises(StorageError):
        StagingConfig(n_datasets=0, dataset_bytes=1, compute_s=1,
                      shared_client_bw=1, copy_bw=1)
    with pytest.raises(StorageError):
        StagingConfig(n_datasets=1, dataset_bytes=1, compute_s=1,
                      shared_client_bw=1, copy_bw=1, depth=-1)
