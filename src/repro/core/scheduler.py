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

Execution model: at most ``-j`` *persistent* slot threads run jobs, and
each finishes its own.  When ``backend.run_job`` returns, the slot
thread takes the run lock, *completes* the job (joblog, retry re-queue,
summary, halt check, slot release) and *admits* the next one (a ready
retry or else fresh input, on the lowest free slot, rendered and
stamped), then runs that job itself: no queue and no other thread sits
between one job and the next.  A slot thread parks on the dispatch queue
only when ``admit`` has nothing for it.  GNU Parallel forks one process
per job, but its *perl-side* bookkeeping per job is tiny — that is the
cost model this reproduces.

The caller's thread (the one in :func:`run_scheduler`) does the first
fill, every timed wait (``--delay``, ``--load``/``--memfree``, retry
backoff, the ``--halt now`` grace, shutdown) and all work that calls
user code or writes output: the output sink through
:class:`OutputSequencer`, ``--results`` files and progress callbacks.
That work reaches it on one event queue, in the order the run lock saw
it, so no sink runs while the lock is held.  A result is queued there
only when that thread has work for it: every result under
``--keep-order`` (the sequencer needs every seq), ``--results``, a
progress callback or a callback sink, and otherwise only a result with
stdout or stderr for a sink that has nothing to do with the rest (the
engine's stream writer, ``emit_silent=False``).  A run with no sink, no
progress callback and no ``--results`` queues no result at all.  When
the caller's thread lags ``_BACKLOG_PER_SLOT`` queued results per slot
behind, ``admit`` starts nothing until it catches up, so a slow sink
holds back new jobs instead of letting results pile up in memory.

Ordering invariant (retry fairness): a job's slot is released only after
its completion — including any retry re-queue — has been handled, under
the same lock hold.  A free slot therefore proves the completion that
freed it has been processed, so retries can never starve behind a
stream of fresh input racing freed slots.
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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

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

if TYPE_CHECKING:  # imported under --trace/--metrics only
    from repro.obs.tracer import RunTracer

__all__ = ["run_scheduler"]

#: Sentinel telling a slot thread to exit.
_STOP = None

#: Items on the caller's event queue: ``_WAKE`` (look at the run again),
#: or ``(op, payload, done, failed)`` where ``op`` is ``_PUSH`` (payload:
#: a final result to write and emit) or ``_SKIP`` (payload: a
#: ``--resume``'d seq), and ``done``/``failed`` are progress counts.
_WAKE = object()
_PUSH = 0
_SKIP = 1

#: Finished results, per slot, that may wait for the caller's thread
#: before admission pauses: a slow sink holds back new starts instead of
#: letting results pile up in memory.
_BACKLOG_PER_SLOT = 4

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
    """Persistent slot threads fed by an in-memory dispatch queue.

    Each thread loops ``take (job, slot) → run_slot(job, slot)``, and
    ``run_slot`` keeps running the jobs the run admits to it; the thread
    is back on the queue only when there was nothing to admit.  None of
    the per-job thread create/start/join cost of a thread-per-job design
    remains.  The pool grows lazily with observed concurrency
    (slot-gating bounds in-flight jobs, so it can never exceed
    ``capacity``).  Threads are daemons: a thread wedged inside a
    backend cannot block interpreter exit after the bounded shutdown
    join.
    """

    def __init__(self, capacity: int, run_slot: Callable[[Job, int], None]):
        self.capacity = capacity
        self._run_slot = run_slot
        self._dispatch_q: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    @property
    def size(self) -> int:
        """Threads spawned so far (monotone within a run, <= capacity)."""
        return len(self._threads)

    @property
    def queue_depth(self) -> int:
        """Jobs queued for dispatch, not yet taken by a thread (a gauge)."""
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
        get, run_slot = self._dispatch_q.get, self._run_slot
        while True:
            item = get()
            if item is _STOP:
                return
            run_slot(*item)

    def shutdown(self, deadline: float) -> int:
        """Stop the threads, joining until ``deadline`` (monotonic seconds).

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
    emit_silent: bool = True,
) -> RunSummary:
    """Run every input through ``backend`` under GNU Parallel semantics.

    ``template`` may be None when the backend does not need a rendered
    command (callable backends); the command recorded is then a synthetic
    ``func(args...)`` string for joblog purposes.  ``emit_silent=False``
    says ``emit`` does nothing for a result with neither stdout nor
    stderr; without ``--keep-order`` such a result then never reaches it.
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
        from repro.obs.tracer import RunTracer

        tracer = RunTracer.from_options(options)

    # The tracer binds before prepare_run so machinery the backend starts
    # there (e.g. dispatcher shards, whose rpc_frame instants feed the
    # Chrome trace) reports into it from the first job.
    if tracer is not None:
        backend.bind_tracer(tracer)
    # Per-run backend setup: merged environments, process pools, remote
    # host pools and staging policy — every per-job-invariant cost a
    # backend can hoist off the hot path.
    backend.prepare_run(options)
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
    has_sink = emit is not None
    # Only a sink needs output ordered: without one there is nothing to emit.
    sequencer = OutputSequencer(emit, options) if emit is not None else None

    # Bounded in-memory retention (keep_results): the deque window
    # keeps coordinator RSS O(window + slots) while every aggregate the
    # run report needs is maintained incrementally in summary.record().
    # With an output sink the sink owns each job's stdout, so the window
    # keeps the record without the text (see record()).
    summary = RunSummary(
        results=retention_buffer(options.effective_keep_results())
    )


    # Everything below is guarded by ``run_lock``: the slot pool, retry
    # queue, input stream, joblog, summary, halt state and these flags.
    # A slot thread holds it for complete + admit; the caller's thread for
    # fill and for deciding how long to wait.
    run_lock = threading.Lock()
    events: "queue.SimpleQueue" = queue.SimpleQueue()
    retry_q = _RetryQueue()
    #: Jobs currently running, by seq — the set we must account for (or
    #: abandon with synthetic KILLED results) before ``backend.close()``.
    in_flight: dict[int, Job] = {}
    seq_counter = itertools.count(1)
    active = 0
    #: The input stream has no more groups.
    exhausted = False
    #: Admit nothing more: a halt fired, or the run is failing or ending.
    stopping = False
    #: Monotonic deadline for in-flight work after ``--halt now``; None
    #: while no kill is pending.
    halt_deadline: Optional[float] = None
    #: Monotonic time when a start refused by --delay/--load/--memfree is
    #: worth trying again; None when nothing was refused.
    gate_at: Optional[float] = None
    throttle_poll = _THROTTLE_POLL_INITIAL
    #: A ``_WAKE`` is queued, or the caller's thread is looking already.
    wake_posted = False
    #: The first exception raised on a slot thread; the caller re-raises it.
    error: Optional[BaseException] = None
    wall_start = time.time()
    last_dispatch = -float("inf")
    dry_run = options.dry_run
    pipe_mode = options.pipe_mode
    stream_lines = sequencer is not None and options.linebuffer
    retries = options.retries
    # A final result travels to the caller's thread only when something
    # there has work for it: every result (``report_all``), or, for a
    # sink that ignores silent results, one with stdout or stderr.
    ordered = has_sink and options.keep_order
    report_all = (
        ordered or (has_sink and emit_silent)
        or progress is not None or results_writer is not None
    )
    #: Results queued for the caller (written under ``run_lock``) and
    #: handled by it (written by the caller only); admission pauses, and
    #: sets ``stalled``, while the difference reaches ``backlog_cap``.
    posted = reported = 0
    backlog_cap = _BACKLOG_PER_SLOT * jobs_cap
    stalled = False
    if progress is not None:
        from repro.core.progress import Progress

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
    if template is not None and pipe_mode and template.is_static:
        static_command = template.render(("",), seq=0, slot=0).rstrip()
    callable_repr: Optional[str] = None
    if template is None:
        callable_repr = repr(getattr(backend, "func", backend))

    def describe(args: ArgGroup, seq: int, slot: int) -> str:
        if template is not None:
            if pipe_mode:
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
        """One job through the backend, exceptions contained."""
        if tracer is not None:
            tracer.job_running(job.seq, job.attempt, slot)
        try:
            # Only the dynamic --timeout form needs a call per job.
            timeout = effective_timeout() if dynamic_pct is not None else fixed_timeout
            result = backend.run_job(job, slot, options, timeout=timeout)
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
    gated = options.delay > 0 or throttled

    def gate_wait() -> float:
        """Seconds until --delay/--load/--memfree let a job start (0 = now).

        A refused throttle probe doubles the next poll interval, up to
        ``_THROTTLE_POLL_MAX``; a passing one resets it.
        """
        nonlocal throttle_poll
        if options.delay > 0:
            wait = last_dispatch + options.delay - time.monotonic()
            if wait > 0:
                return wait
        if throttled:
            if (options.max_load is not None and load_probe() > options.max_load) or (
                options.memfree is not None and mem_probe() < options.memfree
            ):
                wait, throttle_poll = throttle_poll, min(throttle_poll * 2.0, _THROTTLE_POLL_MAX)
                return wait
            throttle_poll = _THROTTLE_POLL_INITIAL
        return 0.0

    def wake() -> None:
        """Have the caller's thread look at the run again (one pending wake)."""
        nonlocal wake_posted
        if not wake_posted:
            wake_posted = True
            events.put(_WAKE)

    def pull_fresh() -> Optional[Job]:
        """Pull the next fresh job off the input stream (None = exhausted)."""
        nonlocal exhausted
        for args in groups:
            seq = next(seq_counter)
            if seq in skip:
                summary.n_skipped += 1
                if ordered:
                    events.put((_SKIP, seq, 0, 0))
                continue
            if tracer is not None:
                tracer.job_submitted(seq)
            return Job(seq=seq, args=args)
        exhausted = True
        return None

    def admit() -> Optional[tuple[Job, int]]:
        """Stamp the next job onto the lowest free slot; None if none can start.

        A ready retry outranks fresh input.  Runs under ``run_lock`` on
        whichever thread holds it.  When a start has to wait for time to
        pass (a gate, a retry backoff) or the run may be over, it wakes
        the caller's thread, which does the waiting.
        """
        nonlocal active, gate_at, last_dispatch, stalled
        if stopping:
            if active == 0:
                wake()
            return None
        gate_at = None
        if posted - reported >= backlog_cap:
            stalled = True  # the caller refills once it has caught up
            return None
        slot = slots.acquire()
        if slot is None:
            return None  # every slot busy: a completion will admit
        try:
            if gated:
                wait = gate_wait()
                if wait > 0:
                    slots.release(slot)
                    gate_at = time.monotonic() + wait
                    wake()
                    return None
            job = retry_q.pop_ready(time.time()) if retry_q else None
            if job is None and not exhausted:
                job = pull_fresh()
            if job is None:
                slots.release(slot)
                if retry_q or active == 0:
                    wake()
                return None
            job.attempt += 1
            if tracer is not None:
                tracer.attempt_started(job.seq, job.attempt, slot)
            if pipe_mode and job.stdin_data is None:
                job.stdin_data = job.args[0]
                job.args = (f"<block {job.seq}>",)
            job.command = describe(job.args, job.seq, slot)
            if stream_lines:
                job.stream = sequencer.stream_for(job, slot)
        except BaseException:
            slots.release(slot)
            raise
        job.state = JobState.RUNNING
        if options.delay > 0:
            last_dispatch = time.monotonic()
        summary.n_dispatched += 1
        active += 1
        in_flight[job.seq] = job
        if tracer is not None:
            tracer.job_dispatched(job.seq, job.attempt, slot)
        return job, slot

    def record(job: Job, result: JobResult) -> None:
        """Route one attempt's result to the joblog, retry queue and summary.

        Runs under ``run_lock``.  With an output sink (``has_sink``) the
        summary's retention window records a copy without ``stdout``: the
        sink, fed by ``sequencer`` (whose ``--keep-order`` hold keeps the
        full result until it emits), is the text's one owner, so a long
        run does not hold every job's output after printing it — GNU
        Parallel likewise deletes its output buffer files once printed.
        ``stderr`` and ``value`` stay on the record for failure reports
        and ``Parallel.map``.  The full result goes to the caller's
        thread for ``--results``, the sink and progress, when that thread
        has work for it (``report_all``, or output for the sink).
        """
        nonlocal posted
        if joblog is not None and not dry_run:
            joblog.write(result)
        state = result.state
        if (
            (state is JobState.FAILED or state is JobState.TIMED_OUT)
            and not dry_run
            and should_retry(job, result.exit_code, retries)
            and not halt.triggered
        ):
            job.state = JobState.PENDING
            delay = retry_delay_for(job.attempt)
            job.eligible_at = time.time() + delay if delay > 0 else 0.0
            if tracer is not None:
                tracer.attempt_finished(
                    job, result, retried=True, eligible_at=job.eligible_at
                )
            retry_q.push(job)
            if delay > 0:
                wake()  # the caller's thread times the backoff
            return
        if tracer is not None:
            tracer.attempt_finished(job, result)
        job.state = state
        summary.record(_without_stdout(result) if has_sink and result.stdout else result)
        halt.record(state)
        if report_all or (has_sink and (result.stdout or result.stderr)):
            posted += 1
            events.put(
                (_PUSH, result, summary.n_completed + summary.n_skipped, summary.n_failed)
            )

    def complete(job: Job, slot: int, result: JobResult) -> None:
        """Account for one finished attempt, then free its slot.

        Runs under ``run_lock``.  The slot goes back only after the
        joblog write, the retry re-queue and the halt check, so a freed
        slot never outruns its own completion (retry fairness).
        """
        nonlocal active, stopping, halt_deadline
        if in_flight.pop(job.seq, None) is None:
            return  # abandoned at shutdown and accounted for there
        try:
            record(job, result)
            if halt.triggered and not stopping:
                stopping = True
                if halt.kill_running:
                    backend.cancel_all()
                    halt_deadline = time.monotonic() + options.halt_grace
                wake()
        finally:
            slots.release(slot)
            active -= 1

    def run_slot(job: Job, slot: int) -> None:
        """A slot thread's turn: run jobs for as long as one is admitted."""
        nonlocal error, stopping
        while True:
            result = run_one(job, slot)
            with run_lock:
                try:
                    complete(job, slot, result)
                    nxt = admit()
                except BaseException as exc:  # re-raised on the caller's thread
                    if error is None:
                        error = exc
                    stopping = True
                    wake()
                    return
            if nxt is None:
                return
            job, slot = nxt

    pool = _WorkerPool(jobs_cap, run_slot)
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

    def fill() -> bool:
        """Admit and hand out jobs until ``admit`` has none (caller, locked).

        A ``--dry-run`` job is completed here instead; one per call, so
        its line is emitted before the next is admitted.  Returns True
        when it handled one.
        """
        while True:
            nxt = admit()
            if nxt is None:
                return False
            job, slot = nxt
            if dry_run:
                now = time.time()
                complete(job, slot, JobResult(
                    seq=job.seq, args=job.args, command=job.command,
                    exit_code=0, start_time=now, end_time=now, slot=slot,
                    host=backend.host, attempt=job.attempt,
                    state=JobState.SUCCEEDED, stdout=job.command + "\n",
                ))
                return True
            pool.submit(job, slot, active)

    def next_wait() -> Optional[float]:
        """Seconds until a timed wait is due (caller, locked); None = none."""
        waits = []
        if halt_deadline is not None:
            waits.append(halt_deadline - time.monotonic())
        if not stopping:
            if gate_at is not None:
                waits.append(gate_at - time.monotonic())
            if retry_q:
                # A retry that fell due since ``fill`` looked is admitted
                # now if a slot is free and no gate refused it (``gate_at``
                # times that start); with every slot busy, the next
                # completion admits it.
                backoff = retry_q.earliest_at() - time.time()
                if backoff > 0 or (active < jobs_cap and gate_at is None):
                    waits.append(backoff)
        return max(0.0, min(waits)) if waits else None

    def report(item: tuple) -> None:
        """Hand one event's result to --results, the sink and progress."""
        nonlocal reported
        op, payload, done, failed = item
        if op == _SKIP:
            sequencer.skip(payload)
            return
        reported += 1
        if results_writer is not None and not dry_run:
            results_writer.write(payload)
        if sequencer is not None:
            sequencer.push(payload)
        if progress is not None:
            progress(Progress(
                done=done, failed=failed, total=known_total,
                elapsed=time.time() - wall_start,
            ))

    def salvage(item: tuple) -> None:
        """A failing run's event: write --results only, call no user code.

        The joblog already holds the job, so without its ``--results``
        files ``--resume`` would skip it for good.  The first error stops
        the writing: the writer may be what failed.
        """
        nonlocal results_writer
        if item[0] == _PUSH and results_writer is not None and not dry_run:
            try:
                results_writer.write(item[1])
            except Exception:
                results_writer = None

    def take_events(wait: Optional[float], handle: Callable[[tuple], None] = report) -> None:
        """Handle events until a wake-up, or for ``wait`` seconds (None = no limit)."""
        deadline = None if wait is None else time.monotonic() + wait
        get = events.get
        while True:
            try:
                if deadline is None:
                    item = get()
                else:
                    item = get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                return
            if item is _WAKE:
                return
            handle(item)
            if stalled and posted - reported < backlog_cap:
                return  # caught up: refill the slots admission paused

    def serve() -> None:
        """The caller's thread until no job is running or can start."""
        nonlocal wake_posted, stalled
        while True:
            with run_lock:
                if error is not None:
                    raise error
                wake_posted = True  # looking now: no wake-up needed
                stalled = False
                more = fill()
                if active == 0 and (stopping or (exhausted and not retry_q)):
                    return
                if halt_deadline is not None and time.monotonic() >= halt_deadline:
                    return  # --halt now grace spent: abandon the stragglers
                wait = 0.0 if more else next_wait()
                wake_posted = False
            take_events(wait)

    def settle(handle: Callable[[tuple], None]) -> None:
        """Wait out in-flight jobs within the grace window, abandon the rest.

        Each job still running at the deadline gets a synthetic KILLED
        result so the joblog and summary account for it; the slot thread
        running it (if it ever returns) finds it gone and records nothing.
        Every event left is then handled by ``handle``.
        """
        nonlocal stopping, wake_posted, active
        deadline = time.monotonic() + options.halt_grace
        if halt_deadline is not None:
            deadline = min(deadline, halt_deadline)
        while True:
            with run_lock:
                stopping = True
                if active == 0:
                    break
                wake_posted = False
            left = deadline - time.monotonic()
            take_events(max(0.01, left), handle)
            if left <= 0:
                break
        with run_lock:
            for job in in_flight.values():
                now = time.time()
                record(job, JobResult(
                    seq=job.seq, args=job.args, command=job.command,
                    exit_code=-1, stderr="abandoned in flight at shutdown",
                    start_time=now, end_time=now, slot=0, host=backend.host,
                    attempt=job.attempt, state=JobState.KILLED,
                ))
            in_flight.clear()
            active = 0
        while not events.empty():
            take_events(0.0, handle)

    settled = False
    try:
        serve()
        settle(report)
        settled = True
    finally:
        if not settled:
            # Failing (a sink, the joblog or the input raised, or an
            # interrupt): kill what runs, account for it, and call no
            # more user code: the sink may be what raised.
            with run_lock:
                stopping = True
                running = active
            if running:
                backend.cancel_all()
            settle(salvage)
        # Idle threads only need to take a _STOP sentinel; a thread still
        # wedged in the backend gets a short join and is left behind.
        pool.shutdown(time.monotonic() + 0.5)
        summary.halted = halt.triggered
        summary.halt_reason = halt.reason
        summary.wall_time = time.time() - wall_start
        if default_mem_probe is not None:
            default_mem_probe.close()
        try:
            if joblog is not None:
                joblog.close()
            # Data-plane counters (staging cache hits, bytes avoided) land
            # on the summary so both the run report and the tracer's
            # RUN_END carry them.
            stats_hook = getattr(backend, "staging_stats", None)
            if stats_hook is not None:
                staging_stats = stats_hook()
                if staging_stats:
                    summary.staging = staging_stats
            # Control-plane counters (frames sent/received, jobs per
            # frame, interning, failover re-queues) from sharded backends.
            rpc_hook = getattr(backend, "control_plane_stats", None)
            if rpc_hook is not None:
                rpc_stats = rpc_hook()
                if rpc_stats:
                    summary.rpc = rpc_stats
            summary.coordinator_rss = _coordinator_rss()
            if tracer is not None:
                tracer.run_finished(summary)
        finally:
            backend.close()
    return summary


def _without_stdout(r: JobResult) -> JobResult:
    """``r`` with ``stdout=""``: the record a sink-fed summary retains.

    Built positionally: ``dataclasses.replace`` walks the field list
    per call and costs twice as much on the per-job path.
    """
    return JobResult(
        r.seq, r.args, r.command, r.exit_code, "", r.stderr, r.start_time,
        r.end_time, r.slot, r.host, r.attempt, r.state, r.value,
    )
