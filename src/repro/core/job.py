"""Job and result records shared by every backend."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, MutableSequence, Optional, Sequence

__all__ = ["JobState", "Job", "JobResult", "RunSummary"]


class JobState(enum.Enum):
    """Lifecycle of a job inside the engine."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    KILLED = "killed"  # halted by --halt now
    SKIPPED = "skipped"  # --resume skipped it


@dataclass
class Job:
    """One unit of work: an argument group bound to a sequence number."""

    seq: int  # 1-based, assigned in input order
    args: tuple[str, ...]
    command: str = ""  # rendered at dispatch (needs the slot number)
    state: JobState = JobState.PENDING
    attempt: int = 0  # 0 = not yet started; 1 = first attempt
    #: ``--pipe`` mode: the block of input fed to the job's stdin.
    stdin_data: "str | None" = None
    #: Earliest wall-clock time this job may be (re)dispatched; set by the
    #: ``--retry-delay`` backoff when a failed attempt is re-queued.
    eligible_at: float = 0.0
    #: ``--linebuffer``: incremental stdout emitter installed per dispatch
    #: by the scheduler; capable backends call it with complete-line
    #: chunks as the job runs (None = buffer until completion).
    stream: "Callable[[str], None] | None" = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True, slots=True, init=False)
class JobResult:
    """Outcome of one job attempt (the last attempt, after retries).

    Every backend builds one per job.  ``slots=True`` drops the
    per-instance ``__dict__``, and the hand-written ``__init__`` sets the
    slots through one bound local instead of the generated initializer's
    per-field global lookup.
    """

    seq: int
    args: tuple[str, ...]
    command: str
    exit_code: int
    stdout: str = ""
    stderr: str = ""
    #: Wall-clock (real backend) or simulated (sim backend) start time.
    start_time: float = 0.0
    end_time: float = 0.0
    slot: int = 0
    #: Hostname (real) or simulated node name.
    host: str = ""
    attempt: int = 1
    state: JobState = JobState.SUCCEEDED
    #: Python-level return value when running callables instead of commands.
    value: object = None

    def __init__(
        self,
        seq: int,
        args: tuple[str, ...],
        command: str,
        exit_code: int,
        stdout: str = "",
        stderr: str = "",
        start_time: float = 0.0,
        end_time: float = 0.0,
        slot: int = 0,
        host: str = "",
        attempt: int = 1,
        state: JobState = JobState.SUCCEEDED,
        value: object = None,
    ) -> None:
        # Frozen: fields are set past the raising __setattr__.
        set_ = object.__setattr__
        set_(self, "seq", seq)
        set_(self, "args", args)
        set_(self, "command", command)
        set_(self, "exit_code", exit_code)
        set_(self, "stdout", stdout)
        set_(self, "stderr", stderr)
        set_(self, "start_time", start_time)
        set_(self, "end_time", end_time)
        set_(self, "slot", slot)
        set_(self, "host", host)
        set_(self, "attempt", attempt)
        set_(self, "state", state)
        set_(self, "value", value)

    @property
    def runtime(self) -> float:
        """Duration of the recorded attempt."""
        return self.end_time - self.start_time

    @property
    def ok(self) -> bool:
        """True for a zero exit code."""
        return self.exit_code == 0


@dataclass
class RunSummary:
    """Aggregate statistics for one engine run.

    ``results`` is the in-memory retention window: a plain list when the
    run keeps everything, or a bounded ``collections.deque`` (oldest
    evicted first) when ``keep_results=N`` caps coordinator memory —
    the regime the paper targets is millions of jobs, where an unbounded
    result list is the difference between O(slots) and O(total) RSS.
    Every aggregate below (``n_completed``, ``exit_counts``, launch-rate
    window, ...) is maintained incrementally by :meth:`record`, so
    nothing downstream *needs* the full list; the joblog/metrics sinks
    remain the durable per-job record.
    """

    results: MutableSequence[JobResult] = field(default_factory=list)
    n_dispatched: int = 0
    n_succeeded: int = 0
    n_failed: int = 0
    n_skipped: int = 0
    halted: bool = False
    halt_reason: Optional[str] = None
    wall_time: float = 0.0
    #: Terminal completions recorded (retries collapse to one); unlike
    #: ``len(results)`` this never decays under bounded retention.
    n_completed: int = 0
    #: Results evicted from the bounded retention window.
    n_results_dropped: int = 0
    #: Completions per exit code, e.g. ``{0: 993, 1: 7}``.
    exit_counts: dict[int, int] = field(default_factory=dict)
    #: Sum of recorded attempt runtimes (mean = runtime_sum/n_completed).
    runtime_sum: float = 0.0
    #: Earliest / latest recorded start times — the launch-rate window,
    #: kept incrementally so the Fig. 3-5 metric survives eviction.
    first_start: float = 0.0
    last_start: float = 0.0
    #: Data-plane counters for staged (remote) runs — files_staged,
    #: cache_hits, bytes_moved, bytes_staged_avoided; empty for local runs.
    staging: dict = field(default_factory=dict)
    #: Control-plane counters for sharded runs (frames sent/received,
    #: jobs per frame, interning); empty for in-process dispatch.
    rpc: dict = field(default_factory=dict)
    #: Coordinator peak RSS in bytes (VmHWM on Linux, ``getrusage``
    #: elsewhere), stamped at run end; 0 where the probe is unavailable.
    coordinator_rss: int = 0

    def record(self, result: JobResult) -> None:
        """Fold one terminal completion into the summary.

        Updates the retention window and every incremental aggregate in
        one place; the scheduler calls this instead of appending to
        ``results`` directly.
        """
        maxlen = getattr(self.results, "maxlen", None)
        if maxlen is not None and len(self.results) >= maxlen:
            self.n_results_dropped += 1  # deque evicts the oldest on append
        self.results.append(result)
        self.n_completed += 1
        code = result.exit_code
        self.exit_counts[code] = self.exit_counts.get(code, 0) + 1
        self.runtime_sum += result.runtime
        start = result.start_time
        if self.n_completed == 1 or start < self.first_start:
            self.first_start = start
        if start > self.last_start:
            self.last_start = start
        if result.state == JobState.SUCCEEDED:
            self.n_succeeded += 1
        elif result.state in (JobState.FAILED, JobState.TIMED_OUT):
            self.n_failed += 1

    @property
    def mean_runtime(self) -> float:
        """Mean recorded attempt runtime, seconds (0.0 before any)."""
        return self.runtime_sum / self.n_completed if self.n_completed else 0.0

    @property
    def observed_launch_rate(self) -> float:
        """Jobs started per second over the whole run (eviction-proof).

        The incremental counterpart of :meth:`launch_rate`: computed from
        the first/last start-time window and ``n_completed``, so it stays
        exact after bounded retention has evicted early results.
        """
        if self.n_completed < 2:
            return 0.0
        span = self.last_start - self.first_start
        if span <= 0:
            return float("inf")
        return (self.n_completed - 1) / span

    @property
    def ok(self) -> bool:
        """True when nothing failed and the run was not halted."""
        return self.n_failed == 0 and not self.halted

    @property
    def exit_code(self) -> int:
        """GNU Parallel-style exit status: min(number of failed jobs, 101)."""
        return min(self.n_failed, 101)

    def sorted_results(self) -> list[JobResult]:
        """Results in input (sequence) order regardless of completion order."""
        return sorted(self.results, key=lambda r: r.seq)

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (drops Python ``value`` payloads)."""
        out = {
            "n_dispatched": self.n_dispatched,
            "n_succeeded": self.n_succeeded,
            "n_failed": self.n_failed,
            "n_skipped": self.n_skipped,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
            "wall_time": self.wall_time,
            "exit_code": self.exit_code,
            "n_completed": self.n_completed,
            "n_results_dropped": self.n_results_dropped,
            "results_retained": len(self.results),
            "exit_counts": {str(k): v for k, v in sorted(self.exit_counts.items())},
            "mean_runtime": self.mean_runtime,
            "results": [
                {
                    "seq": r.seq,
                    "args": list(r.args),
                    "command": r.command,
                    "exit_code": r.exit_code,
                    "start_time": r.start_time,
                    "end_time": r.end_time,
                    "runtime": r.runtime,
                    "slot": r.slot,
                    "host": r.host,
                    "attempt": r.attempt,
                    "state": r.state.value,
                }
                for r in self.sorted_results()
            ],
        }
        if self.staging:
            out["staging"] = dict(self.staging)
        if self.rpc:
            out["rpc"] = dict(self.rpc)
        if self.coordinator_rss:
            out["coordinator_rss"] = self.coordinator_rss
        return out

    def write_json(self, path: str) -> None:
        """Persist :meth:`to_dict` for offline analysis of a run's profile.

        This is the "extract parallel profiles from application executions"
        use the paper's conclusion highlights: a machine-readable timeline
        of every job's start/end/slot.
        """
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def launch_rate(results: Sequence[JobResult]) -> float:
        """Jobs started per second across ``results`` (the Fig. 3-5 metric)."""
        if not results:
            return 0.0
        starts = [r.start_time for r in results]
        span = max(starts) - min(starts)
        if span <= 0:
            return float("inf")
        # N starts over `span` seconds means N-1 inter-start gaps.
        return (len(results) - 1) / span
