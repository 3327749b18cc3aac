"""Dispatcher-shard death injection: SIGKILL a spawner worker mid-run.

The DispatcherPool's fault contract (``repro.core.backends.pool``): a
shard that dies takes no user work with it — its in-flight jobs re-queue
onto surviving shards, the joblog seals cleanly, and exit codes match a
fault-free run.  With *no* survivors the backend drops to its in-process
leg (Popen, or the reaper leg under ``--spawn-path posix``) and the run
still completes.

These tests drive ``run_scheduler`` with an explicit backend instance
(the ``Parallel`` facade builds a fresh backend per run, which would hide
the pool we need to attack).
"""

import os
import signal
import threading
import time

import pytest

from repro.core.backends.local import LocalShellBackend
from repro.core.backends.pool import DispatcherPool
from repro.core.joblog import scan_joblog
from repro.core.options import Options
from repro.core.scheduler import run_scheduler
from repro.core.template import CommandTemplate

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="sharded dispatch requires POSIX"
)

N_JOBS = 24


def _run_sharded(tmp_path, tag, n_dispatchers, killer=None, rpc_batch=1,
                 spawn_path="auto"):
    """One sharded run; returns (summary, ordered output, joblog path)."""
    backend = LocalShellBackend()
    options = Options(
        jobs=4, dispatchers=n_dispatchers, keep_order=True,
        rpc_batch=rpc_batch, spawn_path=spawn_path,
        joblog=str(tmp_path / f"{tag}.log"),
    )
    chunks = []
    template = CommandTemplate("sh -c 'sleep 0.05; echo ok-{}'")
    thread = None
    try:
        backend.prepare_run(options)
        if killer is not None:
            thread = threading.Thread(
                target=killer, args=(backend,), daemon=True
            )
            thread.start()
        summary = run_scheduler(
            template, range(1, N_JOBS + 1), options, backend,
            emit=lambda _res, text: chunks.append(text),
        )
    finally:
        if thread is not None:
            thread.join(timeout=5)
        backend.close()
    return summary, "".join(chunks), options.joblog


def _kill_busiest_shard(backend):
    """Freeze the busiest shard, confirm it still owns work, then kill.

    SIGSTOP before SIGKILL: a stopped shard cannot post result frames,
    so any load still attributed to it parent-side after the stop is
    work the kill is guaranteed to strand.  Observing ``load > 0`` and
    killing directly races — the in-flight jobs can drain in the gap
    between the load snapshot and signal delivery, leaving nothing to
    re-queue.
    """
    deadline = time.time() + 5.0
    while time.time() < deadline:
        pool = backend._pool
        if pool is not None:
            # Empty until DispatcherPool.start() registers the shards.
            loads = pool.shard_loads()
            if loads and max(loads) > 0:
                victim = loads.index(max(loads))
                pid = pool.shard_pids[victim]
                try:
                    os.kill(pid, signal.SIGSTOP)
                except ProcessLookupError:
                    continue
                time.sleep(0.02)  # already-sent result frames drain
                if pool.shard_loads()[victim] > 0:
                    os.kill(pid, signal.SIGKILL)
                    return
                os.kill(pid, signal.SIGCONT)
        time.sleep(0.005)
    raise AssertionError("no shard ever stayed busy long enough to kill")


def _kill_every_shard(backend):
    deadline = time.time() + 5.0
    while time.time() < deadline:
        pool = backend._pool
        pids = pool.shard_pids if pool is not None else []
        if pids and all(pid is not None for pid in pids):
            # Let some work land first so in-flight jobs exist to lose.
            if max(pool.shard_loads()) > 0:
                for pid in pool.shard_pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                return
        time.sleep(0.005)
    raise AssertionError("pool never started")


def _sealed_seqs(joblog_path):
    scan = scan_joblog(joblog_path)
    assert scan.ok, f"malformed joblog lines: {scan.malformed_lines}"
    return sorted(e.seq for e in scan.entries), scan.entries


def test_shard_death_requeues_in_flight_jobs(tmp_path):
    clean_summary, clean_text, _ = _run_sharded(tmp_path, "clean", 2)
    assert clean_summary.ok

    backend_seen = {}

    def killer(backend):
        _kill_busiest_shard(backend)
        backend_seen["pool"] = backend._pool

    summary, text, joblog = _run_sharded(tmp_path, "faulted", 2, killer=killer)

    # Exit codes match the fault-free run: every job succeeded exactly once.
    assert summary.ok
    assert summary.n_succeeded == clean_summary.n_succeeded == N_JOBS
    assert text == clean_text  # keep-order stream is byte-identical

    # The dead shard's in-flight jobs really were re-dispatched.
    pool = backend_seen["pool"]
    assert pool.requeued >= 1
    assert not all(alive for alive in (s.alive for s in pool._shards))

    # The joblog sealed cleanly: every seq, no torn or duplicate rows.
    seqs, entries = _sealed_seqs(joblog)
    assert seqs == list(range(1, N_JOBS + 1))
    assert all(e.exitval == 0 and e.signal == 0 for e in entries)


def test_shard_death_mid_frame_requeues_exactly_once(tmp_path):
    """SIGKILL a shard while batched frames are in flight.

    With ``--rpc-batch 8`` a dead shard can hold whole frames of spawn
    records — some on the wire, some still in its outbox.  The contract
    is unchanged from the per-message era: every in-flight job re-queues
    onto a survivor *exactly once* (no dropped seq, no duplicate joblog
    row) and the keep-order output matches a fault-free run.
    """
    clean_summary, clean_text, _ = _run_sharded(
        tmp_path, "clean-framed", 2, rpc_batch=8
    )
    assert clean_summary.ok

    backend_seen = {}

    def killer(backend):
        _kill_busiest_shard(backend)
        backend_seen["pool"] = backend._pool

    summary, text, joblog = _run_sharded(
        tmp_path, "faulted-framed", 2, killer=killer, rpc_batch=8
    )

    assert summary.ok
    assert summary.n_succeeded == N_JOBS
    assert text == clean_text  # byte-identical despite the mid-frame death

    # The control-plane stats surfaced on the summary agree with the pool.
    pool = backend_seen["pool"]
    assert pool.requeued >= 1
    assert summary.rpc.get("requeued", 0) == pool.requeued
    assert summary.rpc.get("batch") == 8

    # Exactly once: every seq sealed, none twice, all clean exits.
    seqs, entries = _sealed_seqs(joblog)
    assert seqs == list(range(1, N_JOBS + 1))
    assert len(entries) == N_JOBS
    assert all(e.exitval == 0 and e.signal == 0 for e in entries)


def test_all_shards_dead_falls_back_in_process(tmp_path):
    # No survivor shards — the in-process Popen leg finishes the run.
    _check_all_shards_dead(tmp_path, "auto")


def test_all_shards_dead_falls_back_to_pinned_posix_leg(tmp_path):
    # --spawn-path posix: the in-process reaper leg finishes the run.
    _check_all_shards_dead(tmp_path, "posix")


def _check_all_shards_dead(tmp_path, spawn_path):
    summary, text, joblog = _run_sharded(
        tmp_path, f"massacre-{spawn_path}", 2, killer=_kill_every_shard,
        spawn_path=spawn_path,
    )
    assert summary.ok
    assert summary.n_succeeded == N_JOBS
    assert text == "".join(f"ok-{i}\n" for i in range(1, N_JOBS + 1))
    seqs, _ = _sealed_seqs(joblog)
    assert seqs == list(range(1, N_JOBS + 1))


def test_pool_survives_repeated_deaths():
    # Kill a shard after every few jobs; the pool must keep absorbing
    # deaths for as long as any shard remains.
    pool = DispatcherPool(3)
    pool.start()
    try:
        for round_no in range(2):
            for i in range(6):
                reply = pool.run(f"echo r{round_no}-{i}")
                assert reply.kind == "done" and reply.returncode == 0
            victim = next(s for s in pool._shards if s.alive)
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while victim.alive and time.time() < deadline:
                time.sleep(0.005)
            assert not victim.alive
        assert pool.alive  # 3 shards - 2 deaths = 1 survivor
        assert pool.run("echo final").returncode == 0
    finally:
        pool.close()
