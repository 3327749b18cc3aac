"""Callable backend: runs Python callables instead of shell commands.

This is the "last-mile parallelizing driver" usage from the paper's
conclusion, turned into a library API: any Python function can be mapped
over inputs with full engine semantics (slots, retries, halt, keep-order,
joblog).

The callable receives the job's argument group unpacked positionally::

    Parallel(my_func).run(["a", "b"])        # my_func("a")
    Parallel(my_func).run([("a", "1"), ...]) # my_func("a", "1")

An exception marks the job failed (exit code 1, traceback on stderr);
the return value is preserved on :attr:`JobResult.value`.

Timeouts are enforced cooperatively: with a timeout, the callable runs
on its slot's helper thread while the slot thread waits and *reports*
the timeout.  Each slot keeps one helper across its jobs.  Python
threads cannot be killed, so a runaway callable keeps its helper until
it returns, and the slot gets a new helper for its next job (documented
divergence from the subprocess backend, where the process group is
killed).
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Callable

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options

__all__ = ["CallableBackend"]


class _Helper:
    """One slot's timeout helper: a thread running that slot's callables.

    ``jobs`` takes ``(job, slot, start)`` triples, or None to stop;
    ``results`` gives back each job's result in order.
    """

    __slots__ = ("jobs", "results", "thread")

    def __init__(self, invoke: Callable[[Job, int, float], JobResult], slot: int):
        self.jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self.results: "queue.SimpleQueue[JobResult]" = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._loop, args=(invoke,), daemon=True,
            name=f"repro-timeout-helper-{slot}",
        )
        self.thread.start()

    def _loop(self, invoke: Callable[[Job, int, float], JobResult]) -> None:
        jobs, results = self.jobs, self.results
        while True:
            item = jobs.get()
            if item is None:
                return
            results.put(invoke(*item))


class CallableBackend(Backend):
    """Executes ``func(*job.args)`` on the job's slot thread, or on that
    slot's helper thread when the job has a timeout."""

    def __init__(self, func: Callable[..., object]):
        if not callable(func):
            raise TypeError(f"CallableBackend needs a callable, got {func!r}")
        self.func = func
        self.host = "local"
        #: Set by cancel_all (--halt now); a plain flag, read once per job.
        self._cancelled = False
        #: Timeout helpers by slot; a slot's jobs never overlap, so each
        #: entry is used by one slot thread at a time.
        self._helpers: dict[int, _Helper] = {}

    def renew(self) -> "CallableBackend":
        return CallableBackend(self.func)

    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        start = time.time()
        if self._cancelled:
            return self._result(job, slot, -1, None, "", start, start, JobState.KILLED)

        if timeout is None:
            return self._invoke(job, slot, start)

        # Cooperative timeout: run on the slot's helper thread and give up
        # waiting at the deadline.  A helper that overruns is abandoned.
        helper = self._helpers.get(slot)
        if helper is None:
            helper = self._helpers[slot] = _Helper(self._invoke, slot)
        helper.jobs.put((job, slot, start))
        # Wait in short slices so a --halt now cancellation is noticed
        # promptly instead of sleeping out the whole timeout.
        deadline = start + timeout
        while True:
            remaining = deadline - time.time()
            if remaining <= 0:
                break
            if self._cancelled:
                self._abandon(slot)
                end = time.time()
                return self._result(
                    job, slot, -1, None, "", start, end, JobState.KILLED,
                    "cancelled by --halt now (callable abandoned)",
                )
            try:
                return helper.results.get(timeout=min(0.05, remaining))
            except queue.Empty:
                pass
        try:
            return helper.results.get_nowait()
        except queue.Empty:
            pass
        self._abandon(slot)
        end = time.time()
        # The notice is diagnostics, not the job's output.
        return self._result(
            job, slot, -1, None, "", start, end, JobState.TIMED_OUT,
            f"timeout after {timeout}s",
        )

    def _abandon(self, slot: int) -> None:
        """Leave ``slot``'s helper to its overrunning callable; it exits
        when that returns, and the slot's next job gets a new helper."""
        helper = self._helpers.pop(slot, None)
        if helper is not None:  # None once close() has stopped them all
            helper.jobs.put(None)

    def _invoke(self, job: Job, slot: int, start: float) -> JobResult:
        # Every job that runs comes through here; the success result is
        # built positionally, with no further call in between.
        try:
            value = self.func(*job.args)
            end = time.time()
            return JobResult(
                job.seq, job.args, job.command, 0, "" if value is None else str(value),
                "", start, end, slot, self.host, job.attempt, JobState.SUCCEEDED, value,
            )
        except Exception:
            end = time.time()
            return self._result(
                job, slot, 1, None, "", start, end, JobState.FAILED, traceback.format_exc()
            )

    def cancel_all(self) -> None:
        self._cancelled = True

    def close(self) -> None:
        """Stop the idle helpers (one abandoned to a callable is gone already)."""
        helpers, self._helpers = list(self._helpers.values()), {}
        for helper in helpers:
            helper.jobs.put(None)
        deadline = time.monotonic() + 1.0
        for helper in helpers:
            helper.thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def _result(
        self,
        job: Job,
        slot: int,
        code: int,
        value: object,
        stdout: str,
        start: float,
        end: float,
        state: JobState,
        stderr: str = "",
    ) -> JobResult:
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=job.command,
            exit_code=code,
            stdout=stdout,
            stderr=stderr,
            start_time=start,
            end_time=end,
            slot=slot,
            host=self.host,
            attempt=job.attempt,
            state=state,
            value=value,
        )
