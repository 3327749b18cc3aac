"""DispatcherPool unit tests: dispatch, concurrency, kill paths, lifecycle.

Shard-death failover lives in ``tests/chaos/test_dispatcher_death.py``;
this file covers the pool's steady-state contract.
"""

import os
import struct
import sys
import threading
import time

import pytest

from repro.core.backends import pool as pool_module
from repro.core.backends.pool import FK_KILL, DispatcherPool, pack_frame, pool_supported
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


def test_job_threads_answer_every_job_under_contention():
    # More submitters than cores on one shard, with fast thread switches
    # (the worker forks with this interval): a lost update to the
    # worker's idle count or job table strands or duplicates a job.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = DispatcherPool(1, batch=8)
        pool.start()
        try:
            replies = {}

            def go(k):
                for i in range(k, 240, 24):
                    replies[i] = pool.run(f"echo {i}")

            threads = [threading.Thread(target=go, args=(k,)) for k in range(24)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            pool.close()
    finally:
        sys.setswitchinterval(interval)
    assert {i: (r.returncode, r.stdout) for i, r in replies.items()} == {
        i: (0, f"{i}\n".encode()) for i in range(240)
    }


# ------------------------------------------ kills of received, unstarted jobs
#: A job whose group holds two processes; stdout stays open until both exit.
HELD_JOB = "sleep 10 & sleep 10"


@pytest.fixture
def held_pool(monkeypatch):
    """A one-shard pool whose job threads hold each job, before they
    start it, until a kill has reached its ProcessTable (or 5 s pass).
    The workers fork after the patch, so they inherit it: every kill
    below finds its job received but not started, and only a table
    registered when the job arrived lets the kill end the hold."""
    real = pool_module._Worker.run

    def held(self, token, command, table):
        table.cancelled.wait(5)
        return real(self, token, command, table)

    monkeypatch.setattr(pool_module._Worker, "run", held)
    pool = DispatcherPool(1)
    pool.start()
    yield pool
    pool.close()


def _group_alive(pgid):
    """Pids in process group ``pgid`` that are alive (not zombies)."""
    alive = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def _assert_killed(reply):
    assert (reply.kind, reply.returncode) == ("done", -15)
    assert reply.pid > 0 and _group_alive(reply.pid) == []


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")


@needs_proc
def test_kill_all_reaches_a_received_job(held_pool):
    replies = []
    thread = threading.Thread(target=lambda: replies.append(held_pool.run(HELD_JOB)))
    thread.start()
    deadline = time.time() + 5.0
    while sum(held_pool.shard_loads()) < 1 and time.time() < deadline:
        time.sleep(0.005)
    held_pool.kill_all()  # rides the pipe behind the job's spawn record
    thread.join(timeout=10)
    assert len(replies) == 1
    _assert_killed(replies[0])


@needs_proc
def test_timeout_reaches_a_received_job(held_pool):
    reply = held_pool.run(HELD_JOB, timeout=0.3)
    assert reply.timed_out
    _assert_killed(reply)


@needs_proc
def test_kill_frame_before_its_spawn_record(held_pool):
    # A fresh pool's first job is token 1; its kill goes out first.
    assert held_pool._shards[0].send_bytes(pack_frame(FK_KILL, [struct.pack("<Q", 1)]))
    t0 = time.time()
    reply = held_pool.run(HELD_JOB)
    assert time.time() - t0 < 4  # released by the kill, not by the hold
    _assert_killed(reply)


def test_nice_reaches_a_sharded_job():
    pool = DispatcherPool(1, nice=5)
    pool.start()
    try:
        reply = pool.run(f"{sys.executable} -c "
                         "'import os, time; time.sleep(0.3); print(os.nice(0))'")
    finally:
        pool.close()
    assert (reply.returncode, reply.stdout) == (0, b"5\n")


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
