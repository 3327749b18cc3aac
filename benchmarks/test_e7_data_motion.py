"""E7 / §IV-E — massive parallel file transfer on the 8-node DTN cluster.

``find | driver | parallel -j32 -X rsync -R -Ha`` → 256 concurrent rsync
streams across 8 DTN nodes, against two baselines:

* a single sequential rsync stream (paper: ~200x slower);
* a workflow-system data-transfer layer (per-file session setup, modest
  concurrency; paper: >10x slower than the parallel rsync method).

Calibration: the end-to-end path (source PFS -> WAN -> dest PFS) is set
to the paper's measured aggregate (8 x 2,385 Mb/s ≈ 2.4 GB/s); the claim
under test is that 256 streams *saturate* that path while the baselines
leave it idle.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.analysis import render_table, speedup
from repro.cluster import DTN_CLUSTER, SimMachine
from repro.dtn import run_dtn_transfer, run_sequential_transfer
from repro.sim import Environment
from repro.storage.datasets import lognormal_tree
from repro.storage.filesystem import Filesystem
from repro.storage.rsync import RsyncCostModel

N_FILES = 40_000
MEAN_SIZE = 1024**2  # 1 MB mean, lognormal: a petabyte archive's shape
#: End-to-end path capacity in bytes/s: 8 nodes x 2,385 Mb/s (the paper's
#: measured per-node rate) = 19,080 Mb/s = 2.385e9 B/s.
PATH_BW = 8 * 2385e6 / 8.0

RSYNC_COST = RsyncCostModel(startup_s=0.3, per_file_s=0.07, stream_bw=150e6)
#: Workflow-system staging: per-file control-channel round trips (session
#: setup, checksum registration, catalog update — ~0.45 s/file is
#: mid-range for GridFTP-style layers) and slower streams.
WMS_COST = RsyncCostModel(startup_s=1.0, per_file_s=0.45, stream_bw=50e6)


def setup(seed=2):
    env = Environment()
    machine = SimMachine(env, DTN_CLUSTER, with_lustre=False, seed=seed)
    src = Filesystem(env, "gpfs", PATH_BW, PATH_BW, metadata_rate=1e5)
    dst = Filesystem(env, "lustre", PATH_BW, PATH_BW, metadata_rate=1e5)
    files = lognormal_tree(N_FILES, mean_size=MEAN_SIZE, seed=seed)
    src.add_files(files)
    return machine, src, dst, files


def test_e7_data_motion(benchmark, report_file):
    def experiment():
        m1, s1, d1, files = setup()
        par = run_dtn_transfer(m1, s1, d1, files, n_nodes=8, streams_per_node=32,
                               cost=RSYNC_COST)
        m2, s2, d2, files2 = setup()
        seq = run_sequential_transfer(m2, s2, d2, files2, cost=RSYNC_COST)
        m3, s3, d3, files3 = setup()
        wms = run_dtn_transfer(m3, s3, d3, files3, n_nodes=8, streams_per_node=8,
                               cost=WMS_COST)
        return par, seq, wms

    par, seq, wms = run_once(benchmark, experiment)

    rows = [
        {"method": "parallel rsync (8x32)", "streams": 256,
         "duration_s": par.duration, "per_node_Mb_s": par.per_node_mbit_s,
         "speedup_vs_seq": speedup(seq.duration, par.duration)},
        {"method": "wms transfer (8x8)", "streams": 64,
         "duration_s": wms.duration, "per_node_Mb_s": wms.per_node_mbit_s,
         "speedup_vs_seq": speedup(seq.duration, wms.duration)},
        {"method": "sequential rsync", "streams": 1,
         "duration_s": seq.duration, "per_node_Mb_s": seq.aggregate_mbit_s,
         "speedup_vs_seq": 1.0},
    ]
    table = render_table(
        "E7 - DTN data motion (40k-file lognormal tree)",
        ["method", "streams", "duration_s", "per_node_Mb_s", "speedup_vs_seq"],
        rows,
        floatfmt="{:.1f}",
    )
    report_file("e7_data_motion", table)

    # Everything arrived.
    assert par.n_files == N_FILES

    # Per-node throughput in the paper's ballpark (2,385 Mb/s per node);
    # the drain-out tail (last big files on a few streams) costs some of
    # the steady-state rate, so a generous band is used.
    assert par.per_node_mbit_s == pytest.approx(2385, rel=0.35)
    # Saturation claim: the 256 streams keep the shared path mostly busy.
    path_mbit_s = PATH_BW * 8 / 1e6
    assert par.aggregate_mbit_s > 0.55 * path_mbit_s

    # ~200x over sequential (order preserved: 100-400x accepted).
    sp = speedup(seq.duration, par.duration)
    assert 100 <= sp <= 400, f"sequential speedup {sp:.0f}x out of range"

    # >10x over the workflow-system transfer layer.
    assert speedup(wms.duration, par.duration) > 10
