"""DispatcherPool unit tests: dispatch, concurrency, kill paths, lifecycle.

Shard-death failover lives in ``tests/chaos/test_dispatcher_death.py``;
this file covers the pool's steady-state contract.
"""

import os
import threading
import time

import pytest

from repro.core.backends.pool import DispatcherPool, pool_supported
from repro.errors import OptionsError
from repro.core.options import Options

pytestmark = pytest.mark.skipif(
    not pool_supported(), reason="sharded dispatch requires POSIX"
)


@pytest.fixture
def pool():
    pool = DispatcherPool(2)
    pool.start()
    yield pool
    pool.close()


def test_roundtrip_captures_everything(pool):
    reply = pool.run("echo out; echo err >&2; exit 5")
    assert reply.kind == "done"
    assert reply.returncode == 5
    assert reply.stdout == b"out\n"
    assert reply.stderr == b"err\n"
    assert reply.end >= reply.start > 0
    assert reply.spawn_dur >= 0
    assert reply.pid > 0
    assert reply.shard in (0, 1)


def test_concurrent_runs_spread_over_shards(pool):
    replies = []
    lock = threading.Lock()

    def go(i):
        r = pool.run(f"echo job-{i}")
        with lock:
            replies.append(r)

    threads = [threading.Thread(target=go, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(replies) == 12
    assert all(r.returncode == 0 for r in replies)
    assert sorted(r.stdout for r in replies) == sorted(
        f"job-{i}\n".encode() for i in range(12)
    )
    # Least-loaded selection under 12 concurrent jobs uses both shards.
    assert {r.shard for r in replies} == {0, 1}


def test_timeout_kills_job_group(pool):
    t0 = time.time()
    reply = pool.run("sleep 30", timeout=0.3)
    elapsed = time.time() - t0
    assert reply.timed_out
    assert reply.returncode == -15  # SIGTERM, Popen convention
    assert elapsed < 5  # killed, not waited out


def test_kill_all_terminates_in_flight_jobs(pool):
    replies = []

    def go():
        replies.append(pool.run("sleep 30"))

    threads = [threading.Thread(target=go) for _ in range(2)]
    for t in threads:
        t.start()
    deadline = time.time() + 5.0
    while sum(pool.shard_loads()) < 2 and time.time() < deadline:
        time.sleep(0.005)
    pool.kill_all()
    for t in threads:
        t.join(timeout=10)
    assert len(replies) == 2
    assert all(r.returncode == -15 for r in replies)


def test_cancelled_event_closes_dispatch_race(pool):
    cancelled = threading.Event()
    cancelled.set()  # cancellation arrived "during" dispatch
    t0 = time.time()
    reply = pool.run("sleep 30", cancelled=cancelled)
    assert time.time() - t0 < 5
    assert reply.returncode == -15


def test_worker_env_is_baked_in():
    pool = DispatcherPool(1, env={**os.environ, "POOL_PROOF": "42"})
    pool.start()
    try:
        reply = pool.run("echo $POOL_PROOF")
        assert reply.stdout == b"42\n"
    finally:
        pool.close()


def test_close_is_idempotent_and_final():
    pool = DispatcherPool(2)
    pool.start()
    assert pool.run("echo x").returncode == 0
    pool.close()
    pool.close()  # second close is a no-op
    assert not pool.alive
    assert pool.run("echo nope").kind == "lost"


def test_shard_pids_are_live_processes(pool):
    assert len(pool.shard_pids) == 2
    for pid in pool.shard_pids:
        os.kill(pid, 0)  # raises if the worker is not alive


def test_invalid_shard_count_rejected():
    with pytest.raises(ValueError):
        DispatcherPool(0)


# ---------------------------------------------------- options resolution
def test_options_dispatchers_forms():
    assert Options().dispatchers == "auto"
    assert Options().effective_dispatchers() == 1
    assert Options(dispatchers=4).effective_dispatchers() == 4
    assert Options(dispatchers="4").effective_dispatchers() == 4
    for bad in (0, -1, "bogus", "0"):
        with pytest.raises(OptionsError):
            Options(dispatchers=bad)
