"""The engine's dispatch loop (real-execution path).

Reproduces GNU Parallel's job-control behaviour:

* a pool of ``-j`` slots, freed slots reused lowest-first (``{%}``),
* lazy input consumption — unbounded sources (queues, pipes) stream,
* ``--delay`` pacing between starts,
* ``--retries`` with failed jobs re-queued ahead of new input,
* ``--halt`` policies (never / soon / now, fail/success/done, counts or
  percentages),
* ``--resume`` / ``--resume-failed`` against a ``--joblog``,
* ``--keep-order`` output sequencing, ``--tag`` prefixes,
* ``--results`` capture trees, ``--dry-run``.

Execution model: a pool of at most ``-j`` *persistent* worker threads is
fed through an in-memory dispatch queue; each worker loops "take job →
``backend.run_job`` → post completion".  GNU Parallel forks one process
per job, but its *perl-side* bookkeeping per job is tiny — that is the
cost model this pool reproduces.  Spawning an OS thread per job (the
previous design) put ~100 µs of thread start/join on the per-job hot
path, which dominates exactly the single-node launch-rate regime the
paper's Fig. 3 stress test measures.

Ordering invariant (retry fairness): a worker posts its completion and
the *scheduler* releases the job's slot only after the completion has
been fully handled.  A free slot therefore proves the completion that
freed it — including any retry re-queue — has been processed, so retries
can never starve behind a stream of fresh input racing freed slots.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import random
import re
import sys
import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, Optional

from repro.core.backends.base import Backend
from repro.core.inputs import ArgGroup, ceil_div, normalize, shuffled
from repro.core.job import Job, JobResult, JobState, RunSummary
from repro.core.joblog import JoblogWriter, completed_seqs
from repro.core.options import Options
from repro.core.output import OutputSequencer
from repro.core.policies import HaltTracker, retry_backoff_delay, should_retry
from repro.core.results import ResultsWriter, retention_buffer
from repro.core.runstats import StreamingMedian
from repro.core.slots import SlotPool
from repro.core.template import CommandTemplate
from repro.obs.tracer import RunTracer

__all__ = ["run_scheduler"]

#: Sentinel telling a pool worker to exit its take-run-post loop.
_STOP = None

#: Initial --load/--memfree poll interval; doubles up to
#: ``_THROTTLE_POLL_MAX``.
_THROTTLE_POLL_INITIAL = 0.005
_THROTTLE_POLL_MAX = 0.25

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None


def _coordinator_rss() -> int:
    """This process's peak RSS in bytes (0 where unavailable).

    The bounded-memory claim of the streaming result plane is only
    checkable if the run reports it.  On Linux ``/proc/self/status``
    VmHWM is preferred over ``ru_maxrss``: the rusage counter is a
    fork-inherited high-water mark — a child briefly shares its
    parent's COW-resident pages between fork and exec, and the kernel
    folds that pre-exec peak into ``sig->maxrss`` — so a coordinator
    spawned by a large parent would report the *parent's* footprint.
    VmHWM tracks only the current address space (reset on exec).
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # KiB on Linux


class _MemAvailableProbe:
    """``/proc/meminfo`` MemAvailable reader with a cached file handle.

    ``--memfree`` probes before every dispatch; reopening the procfs file
    each time costs a path lookup + open/close per job.  The handle is
    opened once and rewound per probe (procfs regenerates content on
    read).  Unreadable or unparseable → "infinite" memory: never throttle.
    """

    def __init__(self, path: str = "/proc/meminfo"):
        self._path = path
        self._fh = None

    def __call__(self) -> int:
        try:
            if self._fh is None:
                self._fh = open(self._path, "rb", buffering=0)
            else:
                self._fh.seek(0)
            for line in self._fh.read().splitlines():
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
        except (OSError, ValueError, IndexError):
            self.close()
        return 2**63  # no probe available: never throttle

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class _RetryQueue:
    """Min-heap of retry jobs keyed on ``eligible_at``, FIFO within ties.

    Replaces the former O(n)-per-dispatch linear scan of a deque: peek
    and pop of the earliest-eligible job are O(1)/O(log n).
    """

    __slots__ = ("_heap", "_tie")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Job]] = []
        self._tie = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, job: Job) -> None:
        heapq.heappush(self._heap, (job.eligible_at, next(self._tie), job))

    def pop_ready(self, now: float) -> Optional[Job]:
        """The earliest job whose backoff has elapsed, or None."""
        if self._heap and self._heap[0][0] <= now:
            return heapq.heappop(self._heap)[2]
        return None

    def earliest_at(self) -> float:
        """``eligible_at`` of the earliest queued retry (queue non-empty)."""
        return self._heap[0][0]


class _WorkerPool:
    """Persistent worker threads fed by an in-memory dispatch queue.

    Workers loop ``take (job, slot) → run_one → post completion``; none
    of the per-job thread create/start/join cost of the previous
    thread-per-job design remains.  The pool grows lazily with observed
    concurrency (slot-gating bounds in-flight jobs, so it can never
    exceed ``capacity``).  Threads are daemons: a worker wedged inside a backend cannot
    block interpreter exit after the bounded shutdown join.
    """

    def __init__(
        self,
        capacity: int,
        run_one: Callable[[Job, int], JobResult],
        done_q: "queue.SimpleQueue",
    ):
        self.capacity = capacity
        self._run_one = run_one
        self._done_q = done_q
        self._dispatch_q: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    @property
    def size(self) -> int:
        """Workers spawned so far (monotone within a run, <= capacity)."""
        return len(self._threads)

    @property
    def queue_depth(self) -> int:
        """Jobs queued for dispatch, not yet taken by a worker (a gauge)."""
        return self._dispatch_q.qsize()

    def submit(self, job: Job, slot: int, active: int) -> None:
        """Queue one job; ``active`` counts in-flight jobs including it."""
        if len(self._threads) < min(self.capacity, active):
            self._spawn()
        self._dispatch_q.put((job, slot))

    def _spawn(self) -> None:
        thread = threading.Thread(
            target=self._worker_loop,
            daemon=True,
            name=f"repro-worker-{len(self._threads) + 1}",
        )
        self._threads.append(thread)
        thread.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._dispatch_q.get()
            if item is _STOP:
                return
            job, slot = item
            result = self._run_one(job, slot)
            self._done_q.put((job, slot, result))

    def shutdown(self, deadline: float) -> int:
        """Stop workers, joining until ``deadline`` (monotonic seconds).

        Returns the number of threads still alive (wedged in a backend);
        they are daemons and die with the process.
        """
        for _ in self._threads:
            self._dispatch_q.put(_STOP)
        wedged = 0
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            wedged += thread.is_alive()
        return wedged


def run_scheduler(
    template: Optional[CommandTemplate],
    source: Iterable[object],
    options: Options,
    backend: Backend,
    emit: Optional[Callable[[JobResult, str], None]] = None,
    progress: Optional[Callable[..., None]] = None,
) -> RunSummary:
    """Run every input through ``backend`` under GNU Parallel semantics.

    ``template`` may be None when the backend does not need a rendered
    command (callable backends); the command recorded is then a synthetic
    ``func(args...)`` string for joblog purposes.
    """
    # Job ingestion stays lazy end to end: a generator source streams
    # through normalize()/group_args() and is pulled one group per
    # dispatch, so an unbounded or million-item input never materializes
    # in the coordinator.  --shuf is the one necessary exception —
    # shuffling requires the whole list — and it materializes exactly
    # once, reusing that list for the --eta/halt total.
    known_total: Optional[int] = None
    groups: Iterator[ArgGroup]
    if options.shuf:
        shuffled_groups = shuffled(normalize(source), seed=options.seed)
        known_total = len(shuffled_groups)
        groups = iter(shuffled_groups)
    else:
        if hasattr(source, "__len__"):
            known_total = len(source)  # type: ignore[arg-type]
        groups = normalize(source)
    if options.colsep:
        colsep_re = re.compile(options.colsep)
        groups = (
            tuple(colsep_re.split(g[0])) if len(g) == 1 else g for g in groups
        )
    if options.max_args is not None:
        from repro.core.inputs import group_args

        groups = group_args(groups, options.max_args)
        if known_total is not None:
            # N inputs packed -n K per job → ceil(N / K) jobs; a plain
            # floor here under-counted the short final group, skewing
            # --eta/--bar totals (and HaltTracker percentages).
            known_total = ceil_div(known_total, options.max_args)

    jobs_cap = options.effective_jobs(known_total) if options.jobs == 0 else options.jobs
    slots = SlotPool(jobs_cap)
    halt = HaltTracker(options.halt_spec, total_jobs=known_total)

    # Observability: an injected tracer wins; otherwise build one only
    # when --trace/--metrics asked for output.  tracer stays None on the
    # default path, so every instrumentation site below costs a single
    # `is not None` test per job stage when tracing is off.
    tracer: Optional[RunTracer] = options.tracer  # type: ignore[assignment]
    if tracer is None and (options.trace or options.metrics):
        tracer = RunTracer.from_options(options)

    # The tracer binds before prepare_run so per-run setup work the
    # backend does there (e.g. opening persistent remote channels) is
    # itself traced — channel_open spans land in the Chrome trace.
    if tracer is not None:
        bind_tracer = getattr(backend, "bind_tracer", None)
        if bind_tracer is not None:
            bind_tracer(tracer)
    # Per-run backend setup: merged environments, process pools, remote
    # control channels — every per-job-invariant cost a backend can hoist
    # off the hot path.
    prepare_run = getattr(backend, "prepare_run", None)
    if prepare_run is not None:
        prepare_run(options)
    # Command-template interning: sharded backends ship the compiled
    # template to every dispatcher shard once, so per-job spawn frames
    # carry only the argument delta (the backend gates on template shape
    # and no-ops for unsupported forms).
    intern_hook = getattr(backend, "intern_template", None)
    if intern_hook is not None and template is not None:
        intern_hook(template, options)

    joblog: Optional[JoblogWriter] = None
    skip: set[int] = set()
    if options.joblog:
        if options.resume:
            skip = completed_seqs(options.joblog, include_failed=not options.resume_failed)
        joblog = JoblogWriter(
            options.joblog,
            append=options.resume,
        )

    results_writer = ResultsWriter(options.results) if options.results else None
    sequencer = OutputSequencer(emit or (lambda r, text: None), options)

    # Bounded in-memory retention (--keep-results): the deque window
    # keeps coordinator RSS O(window + slots) while every aggregate the
    # run report needs is maintained incrementally in summary.record().
    summary = RunSummary(
        results=retention_buffer(options.effective_keep_results())
    )

    def notify_progress() -> None:
        if progress is None:
            return
        from repro.core.progress import Progress

        progress(
            Progress(
                done=summary.n_completed + summary.n_skipped,
                failed=summary.n_failed,
                total=known_total,
                elapsed=time.time() - wall_start,
            )
        )

    done_q: "queue.SimpleQueue[tuple[Job, int, JobResult]]" = queue.SimpleQueue()
    retry_q = _RetryQueue()
    active = 0
    halted_soon = False
    #: Monotonic deadline for draining in-flight work after ``--halt now``;
    #: None while no kill is pending.
    halt_deadline: Optional[float] = None
    #: Jobs currently running, by seq — the set we must account for (or
    #: abandon with synthetic KILLED results) before ``backend.close()``.
    in_flight: dict[int, Job] = {}
    seq_counter = itertools.count(1)
    wall_start = time.time()
    last_dispatch = -float("inf")

    # --retry-delay: exponential backoff with jitter between attempts.
    # The jitter stream is seeded so chaos runs stay reproducible.
    retry_rng = random.Random(options.seed if options.seed is not None else 0)

    def retry_delay_for(attempt: int) -> float:
        return retry_backoff_delay(
            attempt, options.retry_delay, options.retry_delay_max, retry_rng
        )

    # Per-job command description; per-run invariants hoisted out.  A
    # constant template (possible in --pipe mode, where the command line
    # gets no substitution) renders exactly once.
    static_command: Optional[str] = None
    if template is not None and options.pipe_mode and template.is_static:
        static_command = template.render(("",), seq=0, slot=0).rstrip()
    callable_repr: Optional[str] = None
    if template is None:
        callable_repr = repr(getattr(backend, "func", backend))

    def describe(args: ArgGroup, seq: int, slot: int) -> str:
        if template is not None:
            if options.pipe_mode:
                # --pipe: the block goes to stdin, not the command line.
                if static_command is not None:
                    return static_command
                return template.render(("",), seq=seq, slot=slot).rstrip()
            return template.render(args, seq=seq, slot=slot, quote=options.quote)
        return f"{callable_repr}({', '.join(args)})"

    # --timeout: fixed seconds, or N% of the median runtime seen so far
    # (GNU Parallel's dynamic form; needs >= 3 completed jobs to engage).
    # The running median is a two-heap stream: O(log n) insert, O(1)
    # query — runtimes are only tracked when the dynamic form is active.
    fixed_timeout = options.timeout_s
    dynamic_pct = options.timeout_pct
    median_stream = StreamingMedian()
    median_lock = threading.Lock()

    def effective_timeout() -> Optional[float]:
        if fixed_timeout is not None:
            return fixed_timeout
        if dynamic_pct is not None:
            with median_lock:
                if len(median_stream) >= 3:
                    return median_stream.median() * dynamic_pct
        return None

    def run_one(job: Job, slot: int) -> JobResult:
        """Worker body: one job through the backend, exceptions contained."""
        if tracer is not None:
            tracer.job_running(job.seq, job.attempt, slot)
        try:
            result = backend.run_job(job, slot, options, timeout=effective_timeout())
            if dynamic_pct is not None and result.state == JobState.SUCCEEDED:
                with median_lock:
                    median_stream.push(result.runtime)
        except Exception as exc:  # backend bug; convert to a failed result
            now = time.time()
            result = JobResult(
                seq=job.seq,
                args=job.args,
                command=job.command,
                exit_code=126,
                stderr=f"backend error: {exc!r}",
                start_time=now,
                end_time=now,
                slot=slot,
                host=backend.host,
                attempt=job.attempt,
                state=JobState.FAILED,
            )
        return result

    pool = _WorkerPool(jobs_cap, run_one, done_q)
    if tracer is not None:
        tracer.bind_gauges(
            queue_depth=lambda: pool.queue_depth,
            slots_in_use=lambda: slots.in_use,
            pool_size=lambda: pool.size,
            retry_depth=lambda: len(retry_q),
            in_flight=lambda: len(in_flight),
        )
        tracer.run_started(
            jobs_cap=jobs_cap, total=known_total,
            dispatchers=getattr(backend, "dispatchers", 1),
            rpc_batch=getattr(backend, "rpc_batch", 1),
        )

    # --load / --memfree probes.
    load_probe = options.load_probe or (
        (lambda: os.getloadavg()[0]) if hasattr(os, "getloadavg") else (lambda: 0.0)
    )
    default_mem_probe: Optional[_MemAvailableProbe] = None
    if options.memfree_probe is not None:
        mem_probe = options.memfree_probe
    else:
        default_mem_probe = _MemAvailableProbe()
        mem_probe = default_mem_probe
    throttled = options.max_load is not None or options.memfree is not None

    def pull_fresh() -> Optional[Job]:
        """Pull the next fresh job off the input stream (None = exhausted)."""
        for args in groups:
            seq = next(seq_counter)
            if seq in skip:
                summary.n_skipped += 1
                sequencer.skip(seq)
                continue
            if tracer is not None:
                tracer.job_submitted(seq)
            return Job(seq=seq, args=args)
        return None

    # --stage-ahead: keep up to N not-yet-dispatchable jobs pulled from
    # the input and handed to the backend's staging lane, so their
    # stage-in overlaps earlier jobs' compute.  Dispatch order is
    # unchanged — the lookahead is a FIFO the dispatch loop drains first.
    # Dry runs move no data and --pipe rewrites args at dispatch time, so
    # both stay strictly lazy.
    prefetch_hook = getattr(backend, "prefetch_job", None)
    stage_ahead_n = getattr(options, "stage_ahead", 0)
    lookahead: deque[Job] = deque()
    prefetching = (
        prefetch_hook is not None
        and stage_ahead_n > 0
        and not options.dry_run
        and not options.pipe_mode
    )

    def refill_lookahead() -> None:
        if not prefetching:
            return
        while len(lookahead) < stage_ahead_n:
            job = pull_fresh()
            if job is None:
                return
            lookahead.append(job)
            prefetch_hook(job, options)

    def next_job() -> Optional[Job]:
        """Next dispatchable job: eligible retries first, then fresh input.

        None means no fresh input remains — retries still backing off may
        be waiting in ``retry_q``.
        """
        job = retry_q.pop_ready(time.time())
        if job is not None:
            return job
        refill_lookahead()
        if lookahead:
            return lookahead.popleft()
        return pull_fresh()

    def reap(timeout: Optional[float] = None, notify: bool = True) -> bool:
        """Consume one completion from the workers; False on timeout.

        The slot is released only *after* the completion — retry re-queue
        included — has been handled, so a freed slot can never outrun its
        own completion (the structural retry-fairness guarantee).
        ``notify=False`` lets a batch drain coalesce progress callbacks
        into one per wakeup instead of one per completion.
        """
        nonlocal active, halted_soon, halt_deadline
        try:
            if timeout is not None and timeout <= 0:
                job, slot, result = done_q.get_nowait()
            else:
                job, slot, result = done_q.get(timeout=timeout)
        except queue.Empty:
            return False
        in_flight.pop(job.seq, None)
        try:
            _handle_completion(
                job, result, options, halt, retry_q, summary,
                sequencer, joblog, results_writer, retry_delay_for=retry_delay_for,
                tracer=tracer,
            )
        finally:
            slots.release(slot)
            active -= 1
        if notify:
            notify_progress()
        if halt.triggered and not halted_soon:
            halted_soon = True
            if halt.kill_running:
                backend.cancel_all()
                halt_deadline = time.monotonic() + options.halt_grace
        return True

    def halt_wait() -> Optional[float]:
        """How long reap() may block: bounded once a kill is pending."""
        if halt_deadline is None:
            return None
        return max(0.0, halt_deadline - time.monotonic())

    def drain() -> None:
        """Consume completions already posted, without blocking.

        Keeps completion handling (and thus retry re-queues and halt
        detection) current while fresh input streams through free slots.
        The whole batch is handled per wakeup with a single progress
        callback at the end — under batched shard RPC, completions arrive
        frame-at-a-time, and per-item notification would pay the callback
        cost ``jobs_per_frame`` times per wakeup for no information gain.
        """
        handled = 0
        while not done_q.empty():
            if not reap(timeout=0, notify=False):
                break
            handled += 1
        if handled:
            notify_progress()

    def wait_for_throttle() -> None:
        """Stall dispatch while ``--load``/``--memfree`` say so.

        Polls with exponential backoff (capped at
        ``_THROTTLE_POLL_MAX``) instead of a fixed busy-wait; each
        wait blocks on the completion queue, so a finishing job — or the
        halt it triggers — wakes the loop immediately instead of sleeping
        out the full interval.
        """
        delay = _THROTTLE_POLL_INITIAL
        while not halted_soon and not halt.triggered:
            if options.max_load is not None and load_probe() > options.max_load:
                pass
            elif options.memfree is not None and mem_probe() < options.memfree:
                pass
            else:
                return
            reap(timeout=delay)
            delay = min(delay * 2.0, _THROTTLE_POLL_MAX)

    pending: Optional[Job] = next_job()

    while pending is not None or active > 0 or retry_q:
        drain()
        can_dispatch = (
            pending is not None
            and not halted_soon
            and not halt.triggered
        )
        if can_dispatch:
            slot = slots.acquire(blocking=False)
            if slot is None:
                # All slots busy: wait for a completion, then loop.
                reap()
                continue
            # Pace dispatches per --delay and throttle on --load/--memfree.
            if options.delay > 0:
                gap = time.time() - last_dispatch
                if gap < options.delay:
                    time.sleep(options.delay - gap)
            if throttled:
                wait_for_throttle()
                if halted_soon or halt.triggered:
                    slots.release(slot)  # halt fired while stalled: no new work
                    continue
            # Retries outrank fresh input at every dispatch point (a failed
            # job must not starve behind a stream of new work).
            ready_retry = retry_q.pop_ready(time.time())
            if ready_retry is not None:
                job = ready_retry
            else:
                job, pending = pending, None
            job.attempt += 1
            if tracer is not None:
                tracer.attempt_started(job.seq, job.attempt, slot)
            if options.pipe_mode and job.stdin_data is None:
                job.stdin_data = job.args[0]
                job.args = (f"<block {job.seq}>",)
            job.command = describe(job.args, job.seq, slot)
            if options.linebuffer:
                job.stream = sequencer.stream_for(job, slot)
            job.state = JobState.RUNNING
            last_dispatch = time.time()
            summary.n_dispatched += 1
            if options.dry_run:
                slots.release(slot)
                now = time.time()
                result = JobResult(
                    seq=job.seq, args=job.args, command=job.command,
                    exit_code=0, start_time=now, end_time=now, slot=slot,
                    host=backend.host, attempt=job.attempt,
                    state=JobState.SUCCEEDED, stdout=job.command + "\n",
                )
                _handle_completion(
                    job, result, options, halt, retry_q, summary,
                    sequencer, joblog, results_writer, dry_run=True,
                    tracer=tracer,
                )
                notify_progress()
            else:
                active += 1
                in_flight[job.seq] = job
                # Dispatch is recorded before the queue put: a worker may
                # pick the job up (and stamp RUNNING) instantly.
                if tracer is not None:
                    tracer.job_dispatched(job.seq, job.attempt, slot)
                pool.submit(job, slot, active)
            if pending is None:
                pending = next_job()
            continue

        if active > 0:
            if not reap(timeout=halt_wait()):
                break  # halt grace expired: abandon stragglers
            if pending is None and not halted_soon:
                pending = retry_q.pop_ready(time.time())
            continue

        if halted_soon or halt.triggered:
            break  # input/retries remain but we must not start them

        if pending is None and retry_q:
            # Only backing-off retries remain: sleep out the earliest delay.
            time.sleep(max(0.0, retry_q.earliest_at() - time.time()))
            pending = retry_q.pop_ready(time.time())
            continue

        break

    summary.halted = halt.triggered
    summary.halt_reason = halt.reason

    # Shutdown: drain completions within the grace window, then account
    # for anything still wedged with a synthetic KILLED result, and stop
    # the pool (bounded) so backend.close() cannot race run_job.
    shutdown_deadline = time.monotonic() + options.halt_grace
    if halt_deadline is not None:
        shutdown_deadline = min(shutdown_deadline, halt_deadline)
    while active > 0:
        if not reap(timeout=max(0.01, shutdown_deadline - time.monotonic())):
            break
    if active > 0:
        for job in list(in_flight.values()):
            now = time.time()
            abandoned = JobResult(
                seq=job.seq, args=job.args, command=job.command,
                exit_code=-1, stderr="abandoned in flight at shutdown",
                start_time=now, end_time=now, slot=0, host=backend.host,
                attempt=job.attempt, state=JobState.KILLED,
            )
            _handle_completion(
                job, abandoned, options, halt, retry_q, summary,
                sequencer, joblog, results_writer, tracer=tracer,
            )
        in_flight.clear()
        active = 0
    # Idle workers only need to drain a _STOP sentinel; grant a small
    # join floor even when the halt grace window is already spent.
    pool.shutdown(max(shutdown_deadline, time.monotonic() + 0.5))

    summary.wall_time = time.time() - wall_start
    if default_mem_probe is not None:
        default_mem_probe.close()
    if joblog is not None:
        joblog.close()
    # Data-plane counters (staging cache hits, bytes avoided) land on the
    # summary so both the run report and the tracer's RUN_END carry them.
    stats_hook = getattr(backend, "staging_stats", None)
    if stats_hook is not None:
        staging_stats = stats_hook()
        if staging_stats:
            summary.staging = staging_stats
    # Control-plane counters (frames sent/received, jobs per frame,
    # interning, failover re-queues) from sharded backends.
    rpc_hook = getattr(backend, "control_plane_stats", None)
    if rpc_hook is not None:
        rpc_stats = rpc_hook()
        if rpc_stats:
            summary.rpc = rpc_stats
    summary.coordinator_rss = _coordinator_rss()
    if tracer is not None:
        tracer.run_finished(summary)
    backend.close()
    return summary


def _handle_completion(
    job: Job,
    result: Optional[JobResult],
    options: Options,
    halt: HaltTracker,
    retry_q: _RetryQueue,
    summary: RunSummary,
    sequencer: OutputSequencer,
    joblog: Optional[JoblogWriter],
    results_writer: Optional[ResultsWriter],
    dry_run: bool = False,
    retry_delay_for: Optional[Callable[[int], float]] = None,
    tracer: Optional[RunTracer] = None,
) -> None:
    assert result is not None
    if joblog is not None and not dry_run:
        joblog.write(result)
    if (
        not dry_run
        and result.state in (JobState.FAILED, JobState.TIMED_OUT)
        and should_retry(job, result.exit_code, options.retries)
        and not halt.triggered
    ):
        job.state = JobState.PENDING
        delay = retry_delay_for(job.attempt) if retry_delay_for is not None else 0.0
        job.eligible_at = time.time() + delay if delay > 0 else 0.0
        if tracer is not None:
            tracer.attempt_finished(
                job, result, retried=True, eligible_at=job.eligible_at
            )
        retry_q.push(job)
        return
    if tracer is not None:
        tracer.attempt_finished(job, result)
    job.state = result.state
    summary.record(result)
    halt.record(result.state)
    if results_writer is not None and not dry_run:
        results_writer.write(result)
    sequencer.push(result)
