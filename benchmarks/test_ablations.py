"""Ablations for the design choices called out in DESIGN.md §5.

* cyclic vs block input sharding across nodes (the Listing-1 driver);
* rsync ``-X`` argument batching vs one-file-per-rsync;
* prefetch depth in the Darshan pipeline (0 = no prefetch, 1 = paper's);
* one engine instance with a huge ``-j`` vs many instances (Fig. 3's
  structural insight: the dispatcher, not the slot count, is the
  single-instance bottleneck).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.analysis import launch_rate, render_table
from repro.cluster import DTN_CLUSTER, PERLMUTTER_CPU, SimMachine
from repro.dtn import run_dtn_transfer
from repro.sim import Environment
from repro.simengine import SimParallel, SimTask, batch_makespan
from repro.storage.datasets import uniform_files
from repro.storage.filesystem import Filesystem
from repro.storage.rsync import RsyncCostModel


# ---------------------------------------------------------- sharding ablation
def test_ablation_cyclic_vs_block_sharding(benchmark, report_file):
    """When task cost correlates with input position, cyclic sharding
    balances nodes; block sharding piles the expensive lines on one node."""
    n_nodes, per_node = 16, 64
    n = n_nodes * per_node
    # Line cost grows linearly with position (e.g. later months = more logs).
    costs = np.linspace(0.01, 1.0, n)
    # Few slots per node, so a node's makespan tracks its shard's total
    # work (with plentiful slots the max single task dominates and the
    # sharding strategy is irrelevant — that regime is not the ablation).
    jobs = 4

    def experiment():
        def makespan_for(shards):
            return max(
                batch_makespan(np.asarray(shard), jobs=jobs) for shard in shards
            )

        cyclic = [costs[i::n_nodes] for i in range(n_nodes)]
        block = [costs[i * per_node : (i + 1) * per_node] for i in range(n_nodes)]
        return makespan_for(cyclic), makespan_for(block)

    cyclic_ms, block_ms = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - input sharding (position-correlated task costs)",
        ["strategy", "makespan_s"],
        [
            {"strategy": "cyclic (NR % NNODE, paper)", "makespan_s": cyclic_ms},
            {"strategy": "block (contiguous)", "makespan_s": block_ms},
        ],
    )
    report_file("ablation_sharding", table)
    assert cyclic_ms < block_ms  # cyclic wins under cost gradients


# ------------------------------------------------------- -X batching ablation
def test_ablation_rsync_argument_batching(benchmark, report_file):
    """GNU Parallel -X (many files per rsync) vs -j32 with one file per
    rsync process: batching amortizes the 0.3 s startup."""
    files = uniform_files(2000, 256 * 1024, prefix="/gpfs/small")
    cost = RsyncCostModel(startup_s=0.3, per_file_s=0.02, stream_bw=150e6)

    def run(run_cost):
        env = Environment()
        machine = SimMachine(env, DTN_CLUSTER, with_lustre=False)
        src = Filesystem(env, "src", 1e12, 1e12, metadata_rate=1e5)
        dst = Filesystem(env, "dst", 1e12, 1e12, metadata_rate=1e5)
        src.add_files(files)
        report = run_dtn_transfer(
            machine, src, dst, files, n_nodes=1, streams_per_node=32, cost=run_cost
        )
        return report.duration

    def experiment():
        batched = run(cost)
        # One rsync per file through the same 32 slots: every file pays
        # the 0.3 s process startup instead of amortizing it per batch.
        per_file_startup = RsyncCostModel(
            startup_s=0.0,
            per_file_s=cost.per_file_s + cost.startup_s,
            stream_bw=cost.stream_bw,
        )
        return batched, run(per_file_startup)

    batched, unbatched = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - rsync -X argument batching (2,000 small files, 1 node)",
        ["mode", "duration_s"],
        [
            {"mode": "-j32 -X (32 batched rsyncs)", "duration_s": batched},
            {"mode": "one rsync per file", "duration_s": unbatched},
        ],
    )
    report_file("ablation_rsync_batching", table)
    assert batched < unbatched  # startup amortization wins


# ----------------------------------------------------- prefetch-depth ablation
def test_ablation_prefetch_depth(benchmark, report_file):
    """Pipeline depth swept 0..3 with the generic staging executor: depth 1
    (the paper's design) captures the whole win; deeper lookahead has no
    headroom because one copy already hides behind one processing stage."""
    from repro.storage.filesystem import Filesystem
    from repro.storage.staging import StagingConfig, run_staging_pipeline

    GB = 1024**3

    def run_depth(depth):
        env = Environment()
        shared = Filesystem(env, "lustre", 1e13, 1e13, max_flows=512)
        local = Filesystem(env, "nvme", 5.5 * GB, 3.5 * GB)
        cfg = StagingConfig(
            n_datasets=5, dataset_bytes=1320 * GB, compute_s=64 * 60.0,
            shared_client_bw=1.0 * GB, copy_bw=0.5 * GB, depth=depth,
        )
        return run_staging_pipeline(env, shared, local, cfg)

    def experiment():
        return {d: run_depth(d) for d in (0, 1, 2, 3)}

    reports = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - staging prefetch depth (Darshan calibration)",
        ["depth", "total_minutes", "lustre_stages", "peak_local_datasets"],
        [
            {"depth": d, "total_minutes": r.total_time / 60,
             "lustre_stages": r.shared_fs_stages,
             "peak_local_datasets": r.peak_local_datasets}
            for d, r in reports.items()
        ],
        floatfmt="{:.1f}",
    )
    report_file("ablation_prefetch_depth", table)

    # Paper's numbers: 430 min unstaged, 358 min with depth 1 (~17%).
    assert reports[0].total_time / 60 == pytest.approx(430, rel=0.02)
    assert reports[1].total_time / 60 == pytest.approx(358, rel=0.02)
    # Depth >= 2 buys nothing once copies hide behind processing.
    for d in (2, 3):
        assert reports[d].total_time == pytest.approx(
            reports[1].total_time, rel=0.01
        )
    # But deeper prefetch costs more NVMe residency.
    assert reports[3].peak_local_datasets >= reports[1].peak_local_datasets


# -------------------------------------------- job-granularity ablation (queue)
def test_ablation_per_task_jobs_vs_one_allocation(benchmark, report_file):
    """The paper's §IV argument quantified: submitting every task as its
    own (node-exclusive) Slurm job wastes the machine; one allocation with
    per-node engine instances packs cores and finishes ~wave-count faster."""
    import numpy as np

    from repro.cluster import FRONTIER, MachineSpec
    from repro.driver import run_multinode_batch
    from repro.slurm import Allocation, QueuedJob, schedule_fifo_backfill

    n_tasks, task_s, n_nodes = 1280, 30.0, 10

    def experiment():
        # (a) one job per task: node-exclusive 30 s jobs through the queue.
        jobs = [QueuedJob(i, 1, task_s, walltime_s=task_s) for i in range(n_tasks)]
        queue = schedule_fifo_backfill(jobs, total_nodes=n_nodes)
        # (b) one 10-node allocation, 128 tasks packed per node.
        calm = MachineSpec(name="calm10", node=FRONTIER.node, total_nodes=64,
                           alloc_delay_mean=2.0, straggler_prob=0.0)
        env = Environment()
        machine = SimMachine(env, calm, with_lustre=False, seed=21)
        run = run_multinode_batch(
            Allocation(machine, n_nodes),
            tasks_per_node=n_tasks // n_nodes,
            duration_sampler=lambda rng, n: np.full(n, task_s),
            jobs_per_node=128,
        )
        return queue.makespan, run.makespan

    queue_makespan, engine_makespan = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - 1,280 x 30s tasks on 10 nodes: per-task jobs vs one allocation",
        ["strategy", "makespan_s"],
        [
            {"strategy": "1,280 node-exclusive Slurm jobs (FIFO+backfill)",
             "makespan_s": queue_makespan},
            {"strategy": "1 allocation + per-node engine (-j128)",
             "makespan_s": engine_makespan},
        ],
        floatfmt="{:.1f}",
    )
    report_file("ablation_job_granularity", table)
    # Per-task jobs serialize into ~128 capacity waves.
    assert queue_makespan == pytest.approx(128 * 30.0, rel=0.02)
    # The engine packs all 128 per-node tasks concurrently: ~1 task time.
    assert engine_makespan < 45.0
    assert queue_makespan / engine_makespan > 50


# ------------------------------------------------------ resilience ablation
def test_ablation_retries_under_failure_injection(benchmark, report_file):
    """Error handling at scale: with a 10% per-task crash rate, --retries
    recovers essentially everything for a modest makespan cost — the
    engine-level resilience the paper's workflows lean on."""

    def run(retries):
        env = Environment()
        machine = SimMachine(env, PERLMUTTER_CPU, seed=13, with_lustre=False)
        inst = SimParallel(machine.node(0), jobs=64, retries=retries)
        proc = inst.run(
            [SimTask(duration=0.5, fail_prob=0.10) for _ in range(2000)]
        )
        results = env.run(until=proc)
        ok = sum(1 for r in results if r.ok)
        return ok / len(results), env.now

    def experiment():
        return {r: run(r) for r in (1, 2, 4)}

    sweep = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - --retries under 10% task-failure injection (2,000 tasks)",
        ["retries", "success_rate", "makespan_s"],
        [
            {"retries": r, "success_rate": ok, "makespan_s": t}
            for r, (ok, t) in sweep.items()
        ],
    )
    report_file("ablation_retries", table)

    ok1, t1 = sweep[1]
    ok4, t4 = sweep[4]
    assert 0.85 <= ok1 <= 0.95          # ~10% lost without retries
    assert ok4 > 0.999                   # retries recover everything
    assert t4 < t1 * 1.5                 # at modest makespan cost


# ------------------------------------------------- instances-vs-big-j ablation
def test_ablation_instances_vs_big_j(benchmark, report_file):
    """One instance with -j256 cannot exceed ~470/s; 8 instances with
    -j32 each reach ~3,760/s: the dispatcher is the bottleneck, not slots."""

    def run(n_instances, jobs):
        env = Environment()
        machine = SimMachine(env, PERLMUTTER_CPU, with_lustre=False)
        node = machine.node(0)
        procs = [
            SimParallel(node, jobs=jobs, name=f"i{k}").run(
                [SimTask(duration=0.0) for _ in range(500)]
            )
            for k in range(n_instances)
        ]
        launches = []
        for p in procs:
            launches.extend(r.launch_time for r in env.run(until=p))
        return launch_rate(launches)

    def experiment():
        return run(1, 256), run(8, 32)

    one_big, many_small = run_once(benchmark, experiment)
    table = render_table(
        "Ablation - one instance -j256 vs 8 instances -j32 (launch rate)",
        ["configuration", "launches_per_s"],
        [
            {"configuration": "1 instance, -j256", "launches_per_s": one_big},
            {"configuration": "8 instances, -j32", "launches_per_s": many_small},
        ],
        floatfmt="{:.0f}",
    )
    report_file("ablation_instances", table)
    assert one_big == pytest.approx(470, rel=0.05)
    assert many_small > 5 * one_big
