#!/usr/bin/env python3
"""Massive parallel file transfer on a DTN cluster (§IV-E), simulated.

The paper's method::

    find /gpfs/proj/data -type f | ./driver.sh | \
        parallel -j32 -X rsync -R -Ha {} /lustre/proj/

An 8-node DTN cluster runs 32 rsync streams per node (256-way transfer)
against a single sequential rsync baseline, on a synthetic project tree
with a lognormal file-size mix.

Run:  python examples/data_motion_dtn.py
"""

from repro.cluster import DTN_CLUSTER, SimMachine
from repro.dtn import run_dtn_transfer, run_sequential_transfer
from repro.sim import Environment
from repro.storage.datasets import lognormal_tree
from repro.storage.filesystem import Filesystem
from repro.storage.rsync import RsyncCostModel

N_FILES = 5_000
PATH_BW = 2.385e9  # bytes/s end-to-end (8 x 2,385 Mb/s, the paper's rate)
COST = RsyncCostModel(startup_s=0.3, per_file_s=0.07, stream_bw=150e6)


def build(seed=0):
    env = Environment()
    machine = SimMachine(env, DTN_CLUSTER, with_lustre=False, seed=seed)
    src = Filesystem(env, "gpfs", PATH_BW, PATH_BW, metadata_rate=1e5)
    dst = Filesystem(env, "lustre", PATH_BW, PATH_BW, metadata_rate=1e5)
    files = lognormal_tree(N_FILES, mean_size=1024**2, seed=seed)
    src.add_files(files)
    return machine, src, dst, files


def main() -> None:
    print(f"synthetic project tree: {N_FILES} files, lognormal sizes")

    machine, src, dst, files = build()
    par = run_dtn_transfer(machine, src, dst, files, n_nodes=8, streams_per_node=32,
                           cost=COST)
    print(f"\n256-way parallel rsync (8 DTN nodes x 32 streams):")
    print(f"  duration : {par.duration:8.1f} s (simulated)")
    print(f"  per node : {par.per_node_mbit_s:8.0f} Mb/s (paper: ~2,385 Mb/s)")
    print(f"  files    : {dst.file_count} arrived, tree structure preserved (-R)")

    machine2, src2, dst2, files2 = build()
    seq = run_sequential_transfer(machine2, src2, dst2, files2, cost=COST)
    print(f"\nsequential rsync baseline:")
    print(f"  duration : {seq.duration:8.1f} s (simulated)")
    print(f"  speedup  : {seq.duration / par.duration:8.0f}x from parallelization "
          f"(paper: ~200x at petabyte scale)")

    # Incremental restart: run the parallel transfer again — everything skips.
    rerun = run_dtn_transfer(machine, src, dst, files, n_nodes=8,
                             streams_per_node=32, cost=COST)
    skipped = sum(s.files_skipped for s in rerun.rsync_stats)
    print(f"\nincremental restart: {skipped}/{N_FILES} files skipped "
          f"in {rerun.duration:.1f} s (rsync semantics preserved)")


if __name__ == "__main__":
    main()
