"""Execution backend interface.

A backend turns one :class:`~repro.core.job.Job` into a
:class:`~repro.core.job.JobResult`, blocking for the job's duration.  The
scheduler owns all concurrency; backends only know how to run one job.
"""

from __future__ import annotations

import abc

from repro.core.job import Job, JobResult
from repro.core.options import Options

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Runs jobs; one instance is shared by all of a run's worker threads."""

    #: Reported in joblogs and results as the execution host.
    host: str = "local"

    #: A callable backend's function, named in each job's recorded command.
    func = None
    #: Roster-wide concurrency under ``-S`` (``-j`` is per host); None = ``-j``.
    total_slots: int | None = None
    #: Dispatcher shards and jobs per RPC frame (a traced run's metadata).
    dispatchers: int = 1
    rpc_batch: int = 1

    #: Observability hook (a :class:`repro.obs.RunTracer`); None when the
    #: run is not being traced.  Backends emit point events through it
    #: (``self._tracer.instant(...)``) guarded by an ``is not None`` test.
    _tracer = None

    def bind_tracer(self, tracer) -> None:
        """Attach the run's tracer (called by the scheduler per run)."""
        self._tracer = tracer

    @abc.abstractmethod
    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        """Execute ``job`` to completion and return its result.

        ``timeout`` is the effective per-job wall-clock limit computed by
        the scheduler (seconds; None = unlimited) — backends must honour it
        by returning a TIMED_OUT result.  Backends must never raise for an
        ordinary job failure; failures are results, not exceptions.
        """

    def renew(self) -> "Backend":
        """The backend for the engine's next run.

        Backends are single-run: they track in-flight processes and
        cancellation.  Stateful backends return a fresh instance (or reset
        themselves); the default reuses ``self``.
        """
        return self

    def prepare_run(self, options: Options) -> None:
        """One-time per-run setup, called by the scheduler before dispatch.

        Backends hoist per-job-invariant work here — merged environments,
        process pools — so nothing constant is recomputed on the per-job
        hot path.  Default: nothing.
        """

    def intern_template(self, template, options: Options) -> None:
        """Take the run's command template before its first job."""

    def staging_stats(self) -> dict:
        """Data-plane counters (files staged, cache hits) for the summary."""
        return {}

    def control_plane_stats(self) -> dict:
        """Control-plane counters (RPC frames, re-queues) for the summary."""
        return {}

    def cancel_all(self) -> None:
        """Best-effort termination of everything in flight (``--halt now``)."""

    def close(self) -> None:
        """Release backend resources after a run."""
