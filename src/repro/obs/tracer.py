"""The run tracer: lifecycle span builder + periodic metrics sampler.

One :class:`RunTracer` observes one engine run.  The scheduler calls the
lifecycle hooks (``job_submitted`` … ``attempt_finished``) from its
dispatch loop and its pool workers; backends emit :meth:`instant` point
events (process spawned, fault injected).  The tracer folds lifecycle
events into :class:`~repro.obs.events.JobSpan` structures, keeps live
counters, and — when a metrics interval is set — runs a sampler thread
that snapshots the scheduler gauges it was bound to.

Overhead: each hook is one lock-guarded dict/list update plus one bus
publish (appends into sink buffers).  Nothing touches the filesystem
until the run ends.  When tracing is disabled the scheduler holds no
tracer at all, so the engine's hot path pays a single ``is not None``
test per instrumentation site.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.obs.bus import EventBus
from repro.obs.events import AttemptSpan, Event, EventKind, JobSpan, MetricsSample
from repro.obs.sinks import ChromeTraceSink, MetricsJsonlSink

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.job import Job, JobResult, RunSummary
    from repro.core.options import Options

__all__ = ["RunTracer"]

#: Gauge names the scheduler binds (missing gauges read 0).
_GAUGES = ("queue_depth", "slots_in_use", "pool_size", "retry_depth", "in_flight")


class RunTracer:
    """Collects one run's spans, events and metrics samples.

    Parameters
    ----------
    node:
        Shard/node identifier stamped on every event — how multi-instance
        drivers keep per-node streams separable after a merge.
    sinks:
        Objects with ``handle(event)`` / ``close()`` (e.g.
        :class:`ChromeTraceSink`); subscribed to the bus at construction.
    metrics_interval:
        Seconds between gauge samples; None disables the sampler thread
        (explicit :meth:`sample` calls still work).
    ewma_alpha:
        Smoothing factor for the throughput EWMA (weight of the newest
        interval's completion rate).
    """

    #: Seconds between gauge samples in a tracer built by :meth:`from_options`.
    DEFAULT_METRICS_INTERVAL = 1.0

    def __init__(
        self,
        node: str = "",
        sinks: Iterable[object] = (),
        metrics_interval: Optional[float] = None,
        ewma_alpha: float = 0.3,
        clock: Callable[[], float] = time.time,
    ):
        self.node = node
        self.bus = EventBus()
        self._sinks = list(sinks)
        for sink in self._sinks:
            # A sink advertising its consumed kinds lets the hot path
            # skip constructing events nobody would receive.
            self.bus.subscribe(sink.handle, getattr(sink, "kinds", None))
        self._interval = metrics_interval
        self._alpha = ewma_alpha
        self._clock = clock
        self._lock = threading.Lock()
        self.spans: dict[int, JobSpan] = {}
        self._open: dict[int, AttemptSpan] = {}
        self.samples: list[MetricsSample] = []
        self.jobs_cap: Optional[int] = None
        self._gauges: dict[str, Callable[[], int]] = {}
        self._completed = 0
        self._attempts_done = 0
        self._ewma = 0.0
        self._last_sample_ts: Optional[float] = None
        self._last_sample_completed = 0
        self._sampler: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._finished = False

    # -- construction --------------------------------------------------------
    @classmethod
    def from_options(cls, options: "Options", node: str = "") -> "RunTracer":
        """Build a tracer with the sinks ``--trace`` / ``--metrics`` ask for."""
        sinks: list[object] = []
        if options.trace:
            sinks.append(ChromeTraceSink(options.trace, node=node))
        if options.metrics:
            sinks.append(MetricsJsonlSink(options.metrics, node=node))
        return cls(node=node, sinks=sinks, metrics_interval=cls.DEFAULT_METRICS_INTERVAL)

    # -- run lifecycle -------------------------------------------------------
    def run_started(
        self, jobs_cap: int, total: Optional[int] = None, **meta: object
    ) -> None:
        """Bracket the run: record capacity, start the sampler thread."""
        self.jobs_cap = jobs_cap
        data = {"jobs_cap": jobs_cap, "total": total, "node": self.node, **meta}
        self._publish(Event(self._clock(), EventKind.RUN_META, data=data))
        if self._interval is not None and self._sampler is None:
            self._stop.clear()
            self._sampler = threading.Thread(
                target=self._sampler_loop, daemon=True, name="repro-obs-sampler"
            )
            self._sampler.start()

    def run_finished(self, summary: "Optional[RunSummary]" = None) -> None:
        """Stop the sampler, take a final sample, flush and close sinks."""
        if self._finished:
            return
        self._finished = True
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join(timeout=2.0)
            self._sampler = None
        if self._gauges:
            self.sample()
        data: dict[str, object] = {"node": self.node}
        if summary is not None:
            data.update(
                n_dispatched=summary.n_dispatched,
                n_succeeded=summary.n_succeeded,
                n_failed=summary.n_failed,
                n_skipped=summary.n_skipped,
                halted=summary.halted,
                wall_time=summary.wall_time,
            )
            # Data-plane block: trace-only consumers see staging totals
            # (files staged, cache hits, bytes avoided) without needing
            # the metrics sink.
            staging = getattr(summary, "staging", None)
            if staging:
                data["staging"] = dict(staging)
            # Control-plane block: frame counts and jobs-per-frame show
            # how well batched shard RPC amortized — rpc_frames in the
            # trace is the direct counterpart of the per-shard rpc_frame
            # instants scattered along the timeline.
            rpc = getattr(summary, "rpc", None)
            if rpc:
                data["rpc"] = dict(rpc)
                frames = rpc.get("frames_sent")
                if frames is not None:
                    data["rpc_frames"] = frames
                jpf = rpc.get("jobs_per_frame")
                if jpf is not None:
                    data["jobs_per_frame"] = jpf
            rss = getattr(summary, "coordinator_rss", 0)
            if rss:
                data["coordinator_rss"] = rss
        self._publish(Event(self._clock(), EventKind.RUN_END, data=data))
        for sink in self._sinks:
            sink.close()

    def bind_gauges(self, **gauges: Callable[[], int]) -> None:
        """Attach live gauge callables (see ``_GAUGES`` for the names)."""
        unknown = set(gauges) - set(_GAUGES)
        if unknown:
            raise ValueError(f"unknown gauges: {sorted(unknown)}")
        self._gauges.update(gauges)

    # -- per-job lifecycle hooks (called by the scheduler) -------------------
    def job_submitted(self, seq: int) -> None:
        ts = self._clock()
        with self._lock:
            span = self._span(seq)
            if span.t_submitted is None:
                span.t_submitted = ts
        if self.bus.wants(EventKind.SUBMITTED):
            self._publish(
                Event(ts, EventKind.SUBMITTED, seq=seq, node=self.node)
            )

    def attempt_started(self, seq: int, attempt: int, slot: int) -> None:
        """Slot acquired and the attempt bound to it."""
        ts = self._clock()
        with self._lock:
            span = self._span(seq)
            att = AttemptSpan(
                seq=seq, attempt=attempt, slot=slot, t_slot_acquired=ts
            )
            span.attempts.append(att)
            self._open[seq] = att
        if self.bus.wants(EventKind.SLOT_ACQUIRED):
            self._publish(
                Event(
                    ts, EventKind.SLOT_ACQUIRED,
                    seq=seq, attempt=attempt, slot=slot, node=self.node,
                )
            )

    def job_dispatched(self, seq: int, attempt: int, slot: int) -> None:
        """Attempt handed to the worker pool's dispatch queue."""
        ts = self._clock()
        with self._lock:
            att = self._open.get(seq)
            if att is not None and att.attempt == attempt:
                att.t_dispatched = ts
        if self.bus.wants(EventKind.DISPATCHED):
            self._publish(
                Event(
                    ts, EventKind.DISPATCHED,
                    seq=seq, attempt=attempt, slot=slot, node=self.node,
                )
            )

    def job_running(self, seq: int, attempt: int, slot: int) -> None:
        """A pool worker picked the attempt up (backend call imminent)."""
        ts = self._clock()
        with self._lock:
            att = self._open.get(seq)
            if att is not None and att.attempt == attempt:
                att.t_running = ts
        if self.bus.wants(EventKind.RUNNING):
            self._publish(
                Event(
                    ts, EventKind.RUNNING,
                    seq=seq, attempt=attempt, slot=slot, node=self.node,
                )
            )

    def attempt_finished(
        self,
        job: "Job",
        result: "JobResult",
        retried: bool = False,
        eligible_at: Optional[float] = None,
    ) -> None:
        """Close the attempt span; close the job span too unless retried."""
        ts = self._clock()
        state = result.state.value
        with self._lock:
            span = self._span(job.seq)
            att = self._open.pop(job.seq, None)
            if att is None or att.attempt != job.attempt:
                # Defensive: a completion with no open attempt (direct
                # backend callers) still gets a self-contained span.
                att = AttemptSpan(seq=job.seq, attempt=job.attempt, slot=result.slot)
                span.attempts.append(att)
            att.t_start = result.start_time
            att.t_end = result.end_time
            att.state = state
            att.exit_code = result.exit_code
            att.host = result.host
            att.retried = retried
            self._attempts_done += 1
            if not retried:
                span.t_done = ts
                span.final_state = state
                self._completed += 1
        kind = EventKind.RETRY_QUEUED if retried else EventKind.FINISHED
        if not self.bus.wants(kind):
            return
        data = {
            "start": result.start_time,
            "end": result.end_time,
            "state": state,
            "exit_code": result.exit_code,
            "command": result.command,
            "host": result.host,
        }
        if retried:
            data["eligible_at"] = eligible_at
        self._publish(
            Event(
                ts, kind,
                seq=job.seq, attempt=job.attempt, slot=result.slot,
                node=self.node, data=data,
            )
        )

    # -- point events (called by backends) -----------------------------------
    def instant(self, name: str, seq: int = 0, slot: int = 0, **data: object) -> None:
        """Record a point event, e.g. ``proc_spawn`` / ``fault_injected``."""
        self._publish(
            Event(
                self._clock(), EventKind.INSTANT,
                seq=seq, slot=slot, node=self.node, name=name,
                data=data or None,
            )
        )

    def span(
        self,
        name: str,
        start: float,
        end: float,
        seq: int = 0,
        slot: int = 0,
        **data: object,
    ) -> None:
        """Record a completed duration, e.g. ``spawn``/``reap``/``stage_in``.

        Unlike lifecycle events (folded into job spans), these are
        backend-internal intervals: they pass straight through to sinks
        and render as complete "X" slices in Chrome traces, making the
        dispatch overhead breakdown visible per job.
        """
        if not self.bus.wants(EventKind.SPAN):
            return
        self._publish(
            Event(
                start, EventKind.SPAN,
                seq=seq, slot=slot, node=self.node, name=name,
                data={"dur": max(0.0, end - start), **data},
            )
        )

    # -- metrics -------------------------------------------------------------
    def sample(self, now: Optional[float] = None) -> MetricsSample:
        """Snapshot the bound gauges and update the throughput EWMA."""
        ts = self._clock() if now is None else now
        reads = {name: self._g(name) for name in _GAUGES}
        with self._lock:
            completed = self._completed
            attempts_done = self._attempts_done
            if self._last_sample_ts is not None:
                dt = ts - self._last_sample_ts
                if dt > 0:
                    rate = (completed - self._last_sample_completed) / dt
                    self._ewma += self._alpha * (rate - self._ewma)
            self._last_sample_ts = ts
            self._last_sample_completed = completed
            sample = MetricsSample(
                ts=ts,
                node=self.node,
                completed=completed,
                attempts_done=attempts_done,
                throughput_ewma=self._ewma,
                **reads,
            )
            self.samples.append(sample)
        self._publish(
            Event(ts, EventKind.METRICS, node=self.node, data=sample.to_dict())
        )
        return sample

    @property
    def throughput_ewma(self) -> float:
        with self._lock:
            return self._ewma

    @property
    def completed(self) -> int:
        """Terminal completions so far (retried attempts excluded)."""
        with self._lock:
            return self._completed

    @property
    def attempts_done(self) -> int:
        """Attempts finished so far (retried attempts included)."""
        with self._lock:
            return self._attempts_done

    # -- internals -----------------------------------------------------------
    def _g(self, name: str) -> int:
        gauge = self._gauges.get(name)
        if gauge is None:
            return 0
        try:
            return int(gauge())
        except Exception:
            return 0

    def _span(self, seq: int) -> JobSpan:
        span = self.spans.get(seq)
        if span is None:
            span = self.spans[seq] = JobSpan(seq=seq, node=self.node)
        return span

    def _publish(self, event: Event) -> None:
        self.bus.publish(event)

    def _sampler_loop(self) -> None:
        assert self._interval is not None
        while not self._stop.wait(self._interval):
            self.sample()
