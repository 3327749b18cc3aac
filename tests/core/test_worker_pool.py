"""Persistent dispatch-pool invariants.

The engine must never create a thread per job (the pre-pool design), the
pool must stay within ``jobs_cap``, and every worker must be gone when
``run`` returns — all while the semantics the pool replaced thread-per-job
under (keep-order, retries, halt) stay intact.
"""

import threading
import time

import pytest

from repro import Parallel
from repro.core.options import Options
from repro.core.scheduler import _RetryQueue, _WorkerPool
from repro.core.job import Job


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker")]


# ---------------------------------------------------------- thread counts
def test_no_leaked_workers_after_run():
    assert _pool_threads() == []
    summary = Parallel(lambda x: None, jobs=8).run(range(64))
    assert summary.n_succeeded == 64
    assert _pool_threads() == []


def test_pool_never_exceeds_jobs_cap():
    cap = 3
    peak = [0]
    lock = threading.Lock()
    # Every job rendezvouses with cap-1 peers before finishing: the pool
    # is provably at full occupancy at each barrier trip — no sleeps, and
    # a scheduler that stopped reaching cap concurrency breaks the
    # barrier (bounded timeout) instead of passing vacuously.
    barrier = threading.Barrier(cap)

    def work(_x):
        barrier.wait(timeout=10.0)
        with lock:
            peak[0] = max(peak[0], len(_pool_threads()))

    summary = Parallel(work, jobs=cap).run(range(30))
    assert summary.n_succeeded == 30
    assert peak[0] == cap


def test_no_per_job_thread_creation(monkeypatch):
    """A 100-job run spawns at most jobs_cap threads, not one per job."""
    spawned = []
    real_thread = threading.Thread

    class CountingThread(real_thread):
        def __init__(self, *args, **kwargs):
            spawned.append(kwargs.get("name") or "")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", CountingThread)
    summary = Parallel(lambda x: None, jobs=4).run(range(100))
    assert summary.n_succeeded == 100
    assert len(spawned) <= 4


def test_lazy_pool_grows_only_with_concurrency():
    """jobs=8 with a single-item input needs exactly one worker."""
    sizes = []

    def work(_x):
        sizes.append(len(_pool_threads()))

    summary = Parallel(work, jobs=8).run(["only"])
    assert summary.n_succeeded == 1
    assert sizes == [1]


# ------------------------------------------------- semantics under the pool
def test_keep_order_with_retries_under_pool():
    attempts = {}
    lock = threading.Lock()

    def work(x):
        with lock:
            attempts[x] = attempts.get(x, 0) + 1
            if x in ("b", "d") and attempts[x] == 1:
                raise RuntimeError("flaky first attempt")
        return x

    emitted = []
    p = Parallel(work, jobs=4, keep_order=True, retries=2,
                 output=lambda r, t: emitted.append(t))
    summary = p.run(list("abcdef"))
    assert summary.ok
    assert emitted == list("abcdef")
    assert attempts["b"] == 2 and attempts["d"] == 2


def test_halt_now_under_pool_kills_and_reports():
    summary = Parallel(
        "if [ {} = bad ]; then exit 1; else sleep 5; fi",
        jobs=4, halt="now,fail=1", halt_grace=2.0,
    ).run(["bad", "a", "b", "c", "d", "e"])
    assert summary.halted
    assert summary.n_failed >= 1
    assert _pool_threads() == []  # pool shut down despite the kill path


def test_retry_starvation_structurally_impossible():
    """Slot release happens only after the completion (and its retry
    re-queue) is processed, so a failed job's retry is dispatched ahead of
    the fresh-input stream — the PR 1 fairness workaround, now structural.
    """
    order = []
    lock = threading.Lock()
    attempts = {}

    def work(x):
        with lock:
            order.append(x)
            attempts[x] = attempts.get(x, 0) + 1
            if x == "0" and attempts[x] == 1:
                raise RuntimeError("fail once")

    summary = Parallel(work, jobs=1, retries=2).run(range(30))
    assert summary.ok
    # The retry of 0 lands immediately after the one prefetched item.
    assert order.index("0", 1) <= 2


# ----------------------------------------------------------- _RetryQueue
def test_retry_queue_orders_by_eligible_at():
    q = _RetryQueue()
    for seq, at in [(1, 5.0), (2, 1.0), (3, 3.0)]:
        q.push(Job(seq=seq, args=(str(seq),), eligible_at=at))
    assert len(q) == 3
    assert q.earliest_at() == 1.0
    assert q.pop_ready(now=10.0).seq == 2
    assert q.pop_ready(now=2.0) is None  # earliest remaining is 3.0
    assert q.pop_ready(now=4.0).seq == 3
    assert q.pop_ready(now=10.0).seq == 1
    assert not q


def test_retry_queue_fifo_within_same_eligibility():
    q = _RetryQueue()
    for seq in range(1, 6):
        q.push(Job(seq=seq, args=(str(seq),), eligible_at=0.0))
    popped = [q.pop_ready(now=1.0).seq for _ in range(5)]
    assert popped == [1, 2, 3, 4, 5]


# ------------------------------------------------------------ _WorkerPool
def test_worker_pool_shutdown_joins_idle_workers():
    import queue

    done = queue.SimpleQueue()
    pool = _WorkerPool(3, lambda job, slot: None, done)
    for _ in range(3):
        pool._spawn()
    assert pool.size == 3
    wedged = pool.shutdown(deadline=time.monotonic() + 2.0)
    assert wedged == 0
    assert _pool_threads() == []
