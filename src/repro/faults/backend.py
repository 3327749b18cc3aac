"""``FaultyBackend`` — wrap any backend with deterministic fault injection.

The decorator sits between the scheduler and a real backend, consulting a
:class:`~repro.faults.plan.FaultPlan` for every ``(seq, attempt)``.  Jobs
the plan does not target pass straight through; targeted jobs get a
synthetic failure result (crash / signal), wedge until the effective
timeout (hang), start late (slow), or fail transiently then pass through
(flaky).  Because the plan is a pure function of the seed, a chaos run's
retry and success counts are identical on every invocation.

The injected failures are *results*, never exceptions, exactly as the
:class:`~repro.core.backends.base.Backend` contract demands, so the
scheduler's retry / halt / joblog machinery sees them as indistinguishable
from real-world failures — which is the point.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options
from repro.faults.plan import (
    DEFAULT_HANG_S,
    TRANSPORT_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = ["FaultyBackend"]


class FaultyBackend(Backend):
    """Decorator injecting :class:`FaultPlan` faults around ``inner``."""

    def __init__(self, inner: Backend, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.host = inner.host
        self._cancelled = threading.Event()
        self._lock = threading.Lock()
        self._injected: Counter = Counter()

    # -- Backend interface -------------------------------------------------
    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        spec = self.plan.fault_for(job.seq, job.attempt)
        if spec is None or spec.kind in TRANSPORT_FAULT_KINDS:
            # Transport faults fire inside a FaultyTransport (host-level);
            # at the backend layer they are not ours to inject.
            return self.inner.run_job(job, slot, options, timeout=timeout)
        with self._lock:
            self._injected[spec.kind] += 1
        if self._tracer is not None:
            # Chaos runs are traceable: every injected fault is a point
            # event, so a trace shows *why* an attempt failed.
            self._tracer.instant(
                "fault_injected", seq=job.seq, slot=slot,
                kind=spec.kind, attempt=job.attempt,
            )
        start = time.time()

        if spec.kind == "slow":
            # Slow start: dead time before the real job; the recorded
            # runtime includes it, as a straggler's would.
            self._interruptible_sleep(spec.delay)
            result = self.inner.run_job(job, slot, options, timeout=timeout)
            return _restamp_start(result, start)

        if spec.kind == "hang":
            limit = timeout if timeout is not None else (spec.delay or DEFAULT_HANG_S)
            cancelled = self._interruptible_sleep(limit)
            state = JobState.KILLED if cancelled else JobState.TIMED_OUT
            return self._synthetic(
                job, slot, start, exit_code=-1, state=state,
                stderr=f"fault injection: hung for {limit:.4g}s "
                       f"(attempt {job.attempt})",
            )

        if spec.kind == "signal":
            # Negative exit code = killed by signal (subprocess convention).
            return self._synthetic(
                job, slot, start, exit_code=-spec.signal, state=JobState.FAILED,
                stderr=f"fault injection: spurious signal {spec.signal} "
                       f"(attempt {job.attempt})",
            )

        # crash / flaky: exit nonzero without running the real job.
        return self._synthetic(
            job, slot, start, exit_code=spec.exit_code, state=JobState.FAILED,
            stderr=f"fault injection: {spec.kind} exit {spec.exit_code} "
                   f"(attempt {job.attempt})",
        )

    def prepare_run(self, options: Options) -> None:
        # Per-run setup (env caches, pools) must reach the real backend
        # even when the fault wrapper sits in between.
        self.inner.prepare_run(options)

    def bind_tracer(self, tracer) -> None:
        # Both layers observe: the wrapper reports injections, the inner
        # backend reports real process spawns/kills.
        super().bind_tracer(tracer)
        self.inner.bind_tracer(tracer)

    # The run-wide members the scheduler reads are the inner backend's:
    # the wrapper renders, stages and shards nothing itself.
    func = property(lambda self: self.inner.func)
    total_slots = property(lambda self: self.inner.total_slots)
    dispatchers = property(lambda self: self.inner.dispatchers)
    rpc_batch = property(lambda self: self.inner.rpc_batch)

    def intern_template(self, template, options: Options) -> None:
        self.inner.intern_template(template, options)

    def staging_stats(self) -> dict:
        return self.inner.staging_stats()

    def control_plane_stats(self) -> dict:
        return self.inner.control_plane_stats()

    def cancel_all(self) -> None:
        self._cancelled.set()
        self.inner.cancel_all()

    def renew(self) -> "FaultyBackend":
        """Renew ``inner`` and clear cancellation, in place.

        The wrapper itself is kept (not copied): injected-fault counters
        are cumulative across runs by design — callers hold onto the
        wrapper to read them afterwards.
        """
        self.inner = self.inner.renew()
        self._cancelled = threading.Event()
        self.host = self.inner.host
        return self

    def close(self) -> None:
        self.inner.close()

    # -- introspection -----------------------------------------------------
    @property
    def injected(self) -> dict[str, int]:
        """Faults injected so far, by kind (a snapshot copy)."""
        with self._lock:
            return dict(self._injected)

    # -- helpers -----------------------------------------------------------
    def _interruptible_sleep(self, seconds: float) -> bool:
        """Sleep up to ``seconds``; True when cut short by ``cancel_all``."""
        if seconds <= 0:
            return self._cancelled.is_set()
        return self._cancelled.wait(seconds)

    def _synthetic(
        self,
        job: Job,
        slot: int,
        start: float,
        exit_code: int,
        state: JobState,
        stderr: str,
    ) -> JobResult:
        end = time.time()
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=job.command,
            exit_code=exit_code,
            stderr=stderr,
            start_time=start,
            end_time=end,
            slot=slot,
            host=self.host,
            attempt=job.attempt,
            state=state,
        )


def _restamp_start(result: JobResult, start: float) -> JobResult:
    """Rebuild a (frozen) result so its runtime covers the injected delay."""
    import dataclasses

    return dataclasses.replace(result, start_time=min(start, result.start_time))
