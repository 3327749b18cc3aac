"""Slot threads finish their own jobs; the caller's thread owns the rest.

User code — the output sink, progress callbacks — runs on the thread
that called ``run``, in seq order under ``--keep-order``.  A failure on
either side (a raising sink, a joblog that cannot be written) ends the
run the same way: slot threads stopped, joblog flushed, backend closed,
and the original exception raised on the caller's thread.
"""

import os
import sys
import threading
import time
from collections import Counter

import pytest

from repro import Parallel
from repro.core.backends.callable_backend import CallableBackend
from repro.core.joblog import JOBLOG_HEADER, JoblogWriter, read_joblog
from repro.core.results import result_dir_for


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker")]


class SinkError(RuntimeError):
    pass


def _recording_run(command, inputs, **options):
    """Run with a sink and a progress callback that record their thread."""
    ids, seqs = [], []

    def sink(result, _text):
        ids.append(threading.get_ident())
        seqs.append(result.seq)

    def progress(_snapshot):
        ids.append(threading.get_ident())

    summary = Parallel(
        command, jobs=4, keep_order=True, output=sink, progress=progress, **options
    ).run(inputs)
    return summary, ids, seqs


# ------------------------------------------------ callbacks on the caller
def test_subprocess_run_calls_back_on_callers_thread():
    summary, ids, seqs = _recording_run("echo {}", range(24))
    assert summary.n_succeeded == 24
    assert ids and set(ids) == {threading.get_ident()}
    assert seqs == list(range(1, 25))


def test_callable_run_calls_back_on_callers_thread():
    summary, ids, seqs = _recording_run(lambda x: x, range(200))
    assert summary.n_succeeded == 200
    assert ids and set(ids) == {threading.get_ident()}
    assert seqs == list(range(1, 201))


def test_resumed_keep_order_run_skips_through_the_sequencer(tmp_path):
    joblog = tmp_path / "resume.log"
    done = {2, 3, 5, 8}
    with open(joblog, "w", encoding="utf-8") as fh:
        fh.write(JOBLOG_HEADER + "\n")
        for seq in sorted(done):
            fh.write(f"{seq}\tlocal\t0.000\t0.001\t2\t0\t0\t0\techo {seq - 1}\n")
    summary, ids, seqs = _recording_run(
        "echo {}", range(12), joblog=str(joblog), resume=True
    )
    assert summary.n_skipped == len(done)
    assert ids and set(ids) == {threading.get_ident()}
    assert seqs == [s for s in range(1, 13) if s not in done]


# ---------------------------------------------------- failures shut down
@pytest.mark.parametrize("jobs", [2, 4])
def test_raising_sink_flushes_joblog_and_stops_threads(tmp_path, jobs):
    joblog = tmp_path / "j.log"
    results = tmp_path / "res"
    called = []
    lock = threading.Lock()

    def work(x):
        with lock:
            called.append(int(x) + 1)
        return x

    def sink(result, _text):
        if result.seq == 10:
            raise SinkError("sink failed at seq 10")

    with pytest.raises(SinkError):
        Parallel(work, jobs=jobs, output=sink, joblog=str(joblog),
                 results=str(results), keep_order=True).run(range(200))
    assert _pool_threads() == []
    entries = read_joblog(str(joblog))
    assert len(entries) >= 10 and len({e.seq for e in entries}) == len(entries)
    # Every job that ran is logged; one admitted but cancelled before it
    # ran is logged as never run (Exitval -1).
    assert sorted(e.seq for e in entries if e.exitval == 0) == sorted(called)
    assert all(e.exitval in (0, -1) for e in entries)
    # A logged job has its --results files, or --resume would skip it
    # without them.
    for seq in called:
        job_dir = result_dir_for(str(results), (str(seq - 1),))
        assert (open(os.path.join(job_dir, "seq")).read() == f"{seq}\n"), seq


def test_raising_sink_on_subprocess_run_keeps_the_joblog(tmp_path):
    joblog = tmp_path / "j.log"

    def sink(result, _text):
        if result.seq == 10:
            raise SinkError("sink failed at seq 10")

    with pytest.raises(SinkError):
        Parallel("echo {}", jobs=4, output=sink, joblog=str(joblog),
                 keep_order=True).run(range(20))
    assert _pool_threads() == []
    logged = [e.seq for e in read_joblog(str(joblog))]
    assert len(logged) >= 10 and len(set(logged)) == len(logged)


class _ClosingBackend(CallableBackend):
    closed = False

    def renew(self):
        return self

    def close(self):
        self.closed = True
        super().close()


def test_joblog_error_on_a_slot_thread_reraises_on_caller(tmp_path, monkeypatch):
    joblog = tmp_path / "j.log"
    real_write = JoblogWriter.write
    writes = []

    def failing_write(self, result):
        if len(writes) == 5:
            raise OSError("disk full")
        writes.append(result.seq)
        real_write(self, result)

    monkeypatch.setattr(JoblogWriter, "write", failing_write)
    backend = _ClosingBackend(lambda x: x)
    with pytest.raises(OSError, match="disk full"):
        Parallel(lambda x: x, backend=backend, jobs=4,
                 joblog=str(joblog)).run(range(100))
    assert _pool_threads() == []
    assert backend.closed
    assert sorted(e.seq for e in read_joblog(str(joblog))) == sorted(writes)


def test_every_attempt_accounted_once_under_forced_switching(tmp_path):
    """Eight slot threads completing and admitting under one lock, with
    retries, at a 1 µs switch interval: every attempt is logged once,
    every job succeeds once, output stays in seq order."""
    joblog = tmp_path / "j.log"
    attempts = Counter()
    lock = threading.Lock()

    def work(x):
        with lock:
            attempts[x] += 1
            first = attempts[x] == 1
        if int(x) % 7 == 0 and first:
            raise RuntimeError("fails once")
        return x

    emitted = []
    outcome = {}

    def run():
        outcome["summary"] = Parallel(
            work, jobs=8, retries=2, keep_order=True, joblog=str(joblog),
            output=lambda r, _t: emitted.append(r.seq),
        ).run(range(300))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not caller.is_alive()
    summary = outcome["summary"]
    n_flaky = len(range(0, 300, 7))
    assert summary.n_succeeded == 300
    assert emitted == list(range(1, 301))
    logged = Counter(e.seq for e in read_joblog(str(joblog)))
    assert sum(logged.values()) == 300 + n_flaky
    assert all(logged[seq] == (2 if (seq - 1) % 7 == 0 else 1) for seq in range(1, 301))
    assert _pool_threads() == []


def test_slow_sink_holds_back_new_starts():
    """Finished results waiting for the caller's thread stay bounded: a
    sink slower than the jobs paces admission instead of letting results
    pile up."""
    import bisect
    import time

    jobs = 2
    ran, emitted = [], []
    lock = threading.Lock()

    def work(_x):
        with lock:
            ran.append(time.perf_counter())

    def sink(_result, _text):
        time.sleep(0.001)
        emitted.append(time.perf_counter())

    summary = Parallel(work, jobs=jobs, output=sink).run(range(400))
    assert summary.n_succeeded == 400 and len(emitted) == 400
    ran.sort()
    waiting = max(bisect.bisect_right(ran, t) - i for i, t in enumerate(emitted))
    assert waiting <= 4 * jobs + jobs


def test_due_retry_behind_a_closed_gate_waits_without_spinning():
    """A retry due while ``--delay`` refuses the start is timed by the
    gate: the caller's thread sleeps until then instead of polling."""
    failed = []

    def work(x):
        if not failed:
            failed.append(x)
            raise RuntimeError("fails once")
        return x

    cpu = time.thread_time()
    wall = time.monotonic()
    summary = Parallel(work, jobs=2, delay=0.5, retries=2).run(["a"])
    wall = time.monotonic() - wall
    cpu = time.thread_time() - cpu
    assert summary.n_succeeded == 1 and summary.n_dispatched == 2
    assert wall >= 0.45
    assert cpu < 0.2 * wall, (cpu, wall)
