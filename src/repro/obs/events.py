"""Typed observability records: events on the bus, spans built from them.

An :class:`Event` is one immutable fact ("job 7 attempt 2 started running
in slot 3 at t").  The tracer folds the per-job lifecycle events into a
:class:`JobSpan` holding one :class:`AttemptSpan` per dispatched attempt —
the structure invariant tests and the profile bridge consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["EventKind", "Event", "AttemptSpan", "JobSpan", "MetricsSample"]


class EventKind:
    """Event-kind constants (plain strings, cheap to construct and match).

    Per-job lifecycle::

        SUBMITTED → SLOT_ACQUIRED → DISPATCHED → RUNNING
                  → RETRY_QUEUED (back to SLOT_ACQUIRED) | FINISHED

    plus ``INSTANT`` point events from backends (process spawned, process
    group killed, fault injected), ``SPAN`` duration events from backends
    (spawn/reap/stage_in intervals, rendered as complete "X" slices
    in Chrome traces), ``METRICS`` gauge samples from the sampler, and
    ``RUN_META`` / ``RUN_END`` bracketing the run.
    """

    SUBMITTED = "submitted"
    SLOT_ACQUIRED = "slot_acquired"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    RETRY_QUEUED = "retry_queued"
    FINISHED = "finished"
    INSTANT = "instant"
    SPAN = "span"
    METRICS = "metrics"
    RUN_META = "run_meta"
    RUN_END = "run_end"


@dataclass(frozen=True, slots=True)
class Event:
    """One observability fact, published on the run's :class:`EventBus`."""

    ts: float  # wall-clock seconds (same clock as JobResult stamps)
    kind: str  # an EventKind constant
    seq: int = 0  # 1-based job sequence number; 0 = not job-scoped
    attempt: int = 0  # 1-based attempt number; 0 = not attempt-scoped
    slot: int = 0  # 1-based slot number; 0 = no slot bound
    node: str = ""  # shard/node id in multi-instance runs
    name: str = ""  # INSTANT events: what happened ("proc_spawn", ...)
    data: Optional[dict[str, Any]] = None  # kind-specific payload


@dataclass
class AttemptSpan:
    """One dispatched attempt of a job, slot-acquisition to completion.

    ``t_start``/``t_end`` are the backend-recorded execution interval —
    the same numbers the joblog records — while ``t_slot_acquired`` /
    ``t_dispatched`` / ``t_running`` localize scheduler-side overhead
    (slot wait vs. queue wait vs. worker pickup).
    """

    seq: int
    attempt: int
    slot: int = 0
    #: Sshlogin/hostname the attempt executed on ("" until closed; remote
    #: runs record the host the backend actually placed the job on).
    host: str = ""
    t_slot_acquired: Optional[float] = None
    t_dispatched: Optional[float] = None  # handed to the worker pool
    t_running: Optional[float] = None  # worker began backend.run_job
    t_start: Optional[float] = None  # backend execution start
    t_end: Optional[float] = None  # backend execution end
    #: Terminal state of this attempt: a JobState value string, or
    #: "" while the attempt is still open.
    state: str = ""
    exit_code: Optional[int] = None
    #: True when this attempt failed and was re-queued for retry.
    retried: bool = False

    @property
    def closed(self) -> bool:
        return bool(self.state)

    @property
    def runtime(self) -> float:
        """Backend execution duration (0 until closed)."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def timeline(self) -> list[float]:
        """The recorded stage timestamps, in lifecycle order, Nones elided."""
        stamps = [
            self.t_slot_acquired,
            self.t_dispatched,
            self.t_running,
            self.t_start,
            self.t_end,
        ]
        return [t for t in stamps if t is not None]


@dataclass
class JobSpan:
    """One job's full lifecycle: submission to terminal completion.

    Retries nest: each dispatched attempt appends an :class:`AttemptSpan`,
    so a job that failed twice and then succeeded holds attempts 1..3,
    the first two marked ``retried``.
    """

    seq: int
    node: str = ""
    t_submitted: Optional[float] = None
    t_done: Optional[float] = None
    #: JobState value string of the terminal result; "" while open.
    final_state: str = ""
    attempts: list[AttemptSpan] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return bool(self.final_state)

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def attempt(self, number: int) -> AttemptSpan:
        """The span for 1-based attempt ``number`` (KeyError if absent)."""
        for span in self.attempts:
            if span.attempt == number:
                return span
        raise KeyError(f"job {self.seq} has no attempt {number}")


@dataclass(frozen=True, slots=True)
class MetricsSample:
    """One periodic gauge/counter snapshot from the sampler."""

    ts: float
    node: str
    #: Jobs queued in the pool's dispatch queue, not yet taken by a worker.
    queue_depth: int
    #: Slots currently held (live occupancy; never exceeds jobs_cap).
    slots_in_use: int
    #: Worker threads spawned so far (lazy pool growth).
    pool_size: int
    #: Jobs waiting in the retry backoff heap.
    retry_depth: int
    #: Jobs currently in flight (dispatched, completion not yet handled).
    in_flight: int
    #: Terminal completions so far (retried attempts not counted).
    completed: int
    #: Attempts finished so far (retried attempts counted).
    attempts_done: int
    #: Exponentially-weighted moving average of completions/second.
    throughput_ewma: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "node": self.node,
            "queue_depth": self.queue_depth,
            "slots_in_use": self.slots_in_use,
            "pool_size": self.pool_size,
            "retry_depth": self.retry_depth,
            "in_flight": self.in_flight,
            "completed": self.completed,
            "attempts_done": self.attempts_done,
            "throughput_ewma": self.throughput_ewma,
        }
