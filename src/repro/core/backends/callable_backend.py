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

Timeouts are enforced cooperatively via a watchdog that *reports* the
timeout; Python threads cannot be killed, so a runaway callable keeps its
thread until it returns (documented divergence from the subprocess
backend, where the process group is killed).
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options

__all__ = ["CallableBackend"]


class CallableBackend(Backend):
    """Executes ``func(*job.args)`` in the scheduler's worker thread."""

    def __init__(self, func: Callable[..., object]):
        if not callable(func):
            raise TypeError(f"CallableBackend needs a callable, got {func!r}")
        self.func = func
        self.host = "local"
        #: Set by cancel_all (--halt now); a plain flag, read once per job.
        self._cancelled = False

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

        # Cooperative timeout: run in a helper thread, give up waiting at
        # the deadline.  The helper thread is abandoned if it overruns.
        box: dict[str, JobResult] = {}

        def target():
            box["result"] = self._invoke(job, slot, start)

        helper = threading.Thread(target=target, daemon=True)
        helper.start()
        # Wait in short slices so a --halt now cancellation is noticed
        # promptly instead of sleeping out the whole timeout.
        deadline = start + timeout
        while "result" not in box:
            remaining = deadline - time.time()
            if remaining <= 0:
                break
            if self._cancelled:
                end = time.time()
                return self._result(
                    job, slot, -1, None, "", start, end, JobState.KILLED,
                    "cancelled by --halt now (callable abandoned)",
                )
            helper.join(timeout=min(0.05, remaining))
        if "result" in box:
            return box["result"]
        end = time.time()
        # The notice is diagnostics, not the job's output.
        return self._result(
            job, slot, -1, None, "", start, end, JobState.TIMED_OUT,
            f"timeout after {timeout}s",
        )

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
