"""One engine run in a fresh interpreter; started by ``run.py``, never by hand.

``python3 child.py JOB.json`` with the working directory set to the
workload's generated inputs.  The job file names the workload spec, the
option overrides of this run (tracing on, forced popen, ...) and where
to write the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

import stats
import workloads


def cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has waited
    for — shard workers and all jobs included, so work moved out of the
    coordinator still counts."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    """``VmHWM`` of this address space (``ru_maxrss`` is inherited across
    fork and would report the harness)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class RunClock:
    """Wall and CPU time of the ``with`` body: the entry-point call only."""

    wall_s = cpu_s = 0.0

    def __enter__(self) -> "RunClock":
        self._cpu0 = cpu_seconds()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = cpu_seconds() - self._cpu0


class ThreadSampler(threading.Thread):
    """Peak ``threading.active_count()`` during the run, itself excluded."""

    def __init__(self, period_s: float = 0.005):
        super().__init__(daemon=True)
        self.peak = 0
        self._period = period_s
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._period):
            self.peak = max(self.peak, threading.active_count() - 1)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    spec = job["spec"]
    if job["pinned"]:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sampler = ThreadSampler() if job["sample_threads"] else None
    if sampler is not None:
        sampler.start()
    clock = RunClock()
    outcome = workloads.drive(spec, job["variant"], clock)
    if sampler is not None:
        sampler.stop()
    result = {
        "n_succeeded": outcome.n_succeeded,
        "check_error": outcome.check_error,
        "first_start": outcome.first_start,
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        "peak_rss_mb": peak_rss_mib(),
        "slots": outcome.intervals and stats.slot_metrics(outcome.intervals, spec["j"]),
        "rpc": outcome.rpc,
        "staging": outcome.staging,
        "threads_peak": sampler.peak if sampler is not None else None,
    }
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
