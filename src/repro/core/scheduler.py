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

Execution model: :func:`run_scheduler` builds one :class:`_Run`, whose
methods are the run's stages.  At most ``-j`` *persistent* slot threads
(:class:`_WorkerPool`) run jobs, and each finishes its own: when
``backend.run_job`` returns, the slot thread takes the run lock,
*completes* the job (joblog, retry re-queue, summary, halt check, slot
release) and *admits* the next one (a ready retry or else fresh input,
on the lowest free slot, rendered and stamped), then runs that job
itself.  It parks on the dispatch queue only when ``admit`` has nothing
for it.  GNU Parallel forks one process per job, but its *perl-side*
bookkeeping per job is tiny — that is the cost model this reproduces.

The caller's thread does the first fill, every timed wait (``--delay``,
``--load``/``--memfree``, retry backoff, the ``--halt now`` grace,
shutdown) and all work that calls user code or writes output: the sink
through :class:`OutputSequencer`, ``--results`` files and progress
callbacks.  That work reaches it on one event queue, in the order the
run lock saw it, so no sink runs while the lock is held.  A result is
queued only when that thread has work for it (see ``_Run.record``), and
while ``_BACKLOG_PER_SLOT`` results per slot wait there, ``admit``
starts nothing: a slow sink holds back new jobs instead of letting
results pile up in memory.  ``_Run``'s docstring lists what the run
lock guards.

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
    """Min-heap of retry jobs keyed on ``eligible_at``, FIFO within ties:
    peek and pop of the earliest-eligible job are O(1)/O(log n)."""

    __slots__ = ("_heap", "_tie")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Job]] = []
        self._tie = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

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
    is back on the queue only when there was nothing to admit.  The pool
    grows lazily with observed concurrency (slot-gating bounds in-flight
    jobs, so it can never exceed ``capacity``).  Threads are daemons: a
    thread wedged inside a backend cannot block interpreter exit after
    the bounded shutdown join.
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
    return _Run(template, source, options, backend, emit, progress, emit_silent).run()


def _job_groups(
    source: Iterable[object], options: Options
) -> tuple[Iterator[ArgGroup], Optional[int]]:
    """The run's argument groups, and how many there are when known.

    Ingestion stays lazy end to end: a generator source streams through
    normalize()/group_args() and is pulled one group per dispatch, so an
    unbounded or million-item input never materializes in the
    coordinator.  ``--shuf`` is the one necessary exception — shuffling
    requires the whole list — and it materializes exactly once, reusing
    that list for the --eta/halt total.
    """
    if options.shuf:
        source = shuffled(normalize(source), seed=options.seed)
    known_total = len(source) if hasattr(source, "__len__") else None  # type: ignore[arg-type]
    groups: Iterator[ArgGroup] = iter(source) if options.shuf else normalize(source)
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
    return groups, known_total


class _Run:
    """One run of :func:`run_scheduler`: its state and its stages.

    Slot threads call :meth:`run_slot`; the caller's thread calls
    :meth:`run`.  Each stage's docstring says which thread runs it and
    whether it holds ``lock``, the run lock, which guards:

    * ``slots``, ``in_flight`` (running jobs by seq) and ``active``;
    * ``groups``, ``seq_counter``, ``exhausted``, ``retry_q``, ``retry_rng``;
    * ``joblog``, ``summary``, ``halt``, ``median``, ``timeout`` and
      ``posted`` (results queued for the caller);
    * ``stopping`` (admit nothing more), ``halt_deadline``, ``gate_at``,
      ``throttle_poll``, ``last_dispatch``, ``stalled`` (admission paused
      on the backlog), ``wake_posted`` and ``error`` (the first exception
      on a slot thread, re-raised by the caller).

    Read without ``lock``, where a stale value costs only a later look:
    ``timeout`` in :meth:`run_slot`, ``stalled`` and ``posted`` in
    :meth:`take_events`.  Only the caller's thread writes ``reported``
    (a stale read in :meth:`admit` pauses admission a little longer) and
    ``results_writer``.  ``events`` is put to under ``lock``, so it keeps
    the lock's order; it, ``sequencer`` and ``pool`` are thread-safe on
    their own.  All other fields are set in ``__init__`` and only read.
    """

    __slots__ = (
        "template", "options", "backend", "progress", "groups", "known_total",
        "jobs_cap", "slots", "halt", "tracer", "joblog", "skip",
        "results_writer", "sequencer", "summary", "lock", "events", "retry_q",
        "in_flight", "seq_counter", "active", "exhausted", "stopping",
        "halt_deadline", "gate_at", "throttle_poll", "wake_posted", "error",
        "wall_start", "last_dispatch", "dry_run", "pipe_mode", "stream_lines",
        "ordered", "report_all", "posted", "reported", "backlog_cap",
        "stalled", "retry_rng", "static_command", "callable_repr", "timeout",
        "timeout_pct", "median", "load_probe", "mem_probe", "gated", "pool",
    )

    def __init__(
        self, template: Optional[CommandTemplate], source: Iterable[object],
        options: Options, backend: Backend,
        emit: Optional[Callable[[JobResult, str], None]],
        progress: Optional[Callable[..., None]], emit_silent: bool,
    ) -> None:
        self.template, self.options, self.backend = template, options, backend
        self.progress = progress
        self.groups, self.known_total = _job_groups(source, options)
        jobs_cap = self.jobs_cap = options.effective_jobs(self.known_total)
        self.slots = SlotPool(jobs_cap)
        self.halt = HaltTracker(options.halt_spec, total_jobs=self.known_total)

        # An injected tracer wins; otherwise build one only when --trace or
        # --metrics asked for output.  Untraced, every instrumentation site
        # costs one `is not None` test per job stage.
        tracer: Optional[RunTracer] = options.tracer  # type: ignore[assignment]
        if tracer is None and (options.trace or options.metrics):
            from repro.obs.tracer import RunTracer

            tracer = RunTracer.from_options(options)
        self.tracer = tracer
        # The tracer binds before prepare_run so machinery the backend starts
        # there (e.g. dispatcher shards, whose rpc_frame instants feed the
        # Chrome trace) reports into it from the first job.
        if tracer is not None:
            backend.bind_tracer(tracer)
        backend.prepare_run(options)
        if template is not None:
            backend.intern_template(template, options)

        self.joblog: Optional[JoblogWriter] = None
        self.skip: set[int] = set()
        if options.joblog:
            if options.resume:
                self.skip = completed_seqs(
                    options.joblog, include_failed=not options.resume_failed
                )
            self.joblog = JoblogWriter(options.joblog, append=options.resume)
        self.results_writer = ResultsWriter(options.results) if options.results else None
        # Only a sink needs output ordered: without one there is nothing to emit.
        self.sequencer = sequencer = OutputSequencer(emit, options) if emit is not None else None
        # Bounded in-memory retention (keep_results): the deque window
        # keeps coordinator RSS O(window + slots) while every aggregate the
        # run report needs is maintained incrementally in summary.record().
        self.summary = RunSummary(results=retention_buffer(options.effective_keep_results()))

        self.lock = threading.Lock()
        self.events: "queue.SimpleQueue" = queue.SimpleQueue()
        self.retry_q = _RetryQueue()
        self.in_flight: dict[int, Job] = {}
        self.seq_counter = itertools.count(1)
        self.active = self.posted = self.reported = 0
        self.exhausted = self.stopping = self.wake_posted = self.stalled = False
        self.halt_deadline: Optional[float] = None
        self.gate_at: Optional[float] = None
        self.throttle_poll = _THROTTLE_POLL_INITIAL
        self.error: Optional[BaseException] = None
        self.wall_start = time.time()
        self.last_dispatch = -float("inf")
        self.dry_run = options.dry_run
        self.pipe_mode = options.pipe_mode
        self.stream_lines = sequencer is not None and options.linebuffer
        # A final result travels to the caller's thread only when something
        # there has work for it: every result (``report_all``), or, for a
        # sink that ignores silent results, one with stdout or stderr.
        self.ordered = sequencer is not None and options.keep_order
        self.report_all = (
            self.ordered or (sequencer is not None and emit_silent)
            or progress is not None or self.results_writer is not None
        )
        self.backlog_cap = _BACKLOG_PER_SLOT * jobs_cap
        # --retry-delay: exponential backoff with jitter between attempts.
        # The jitter stream is seeded so chaos runs stay reproducible.
        self.retry_rng = random.Random(options.seed if options.seed is not None else 0)

        # A constant template (possible in --pipe mode, where the command
        # line gets no substitution) renders exactly once.
        self.static_command: Optional[str] = None
        if template is not None and self.pipe_mode and template.is_static:
            self.static_command = template.render(("",), seq=0, slot=0).rstrip()
        func = backend.func
        self.callable_repr = repr(backend if func is None else func)

        # --timeout: fixed seconds, or N% of the median runtime seen so far
        # (GNU Parallel's dynamic form; needs >= 3 completed jobs to engage).
        # The running median is a two-heap stream: O(log n) insert, O(1)
        # query, fed by ``record`` only while the dynamic form is active.
        self.timeout: Optional[float] = options.timeout_s
        self.timeout_pct = options.timeout_pct
        self.median = StreamingMedian()

        self.load_probe = options.load_probe or (
            (lambda: os.getloadavg()[0]) if hasattr(os, "getloadavg") else (lambda: 0.0)
        )
        self.mem_probe = (
            options.memfree_probe if options.memfree_probe is not None else _MemAvailableProbe()
        )
        self.gated = (
            options.delay > 0 or options.max_load is not None or options.memfree is not None
        )

        self.pool = _WorkerPool(jobs_cap, self.run_slot)

    # -- the caller's thread -------------------------------------------------
    def run(self) -> RunSummary:
        """Serve the run to its end, then settle and report it (caller)."""
        tracer, pool = self.tracer, self.pool
        if tracer is not None:
            tracer.bind_gauges(
                queue_depth=lambda: pool.queue_depth,
                slots_in_use=lambda: self.slots.in_use,
                pool_size=lambda: pool.size,
                retry_depth=lambda: len(self.retry_q),
                in_flight=lambda: len(self.in_flight),
            )
            tracer.run_started(
                jobs_cap=self.jobs_cap, total=self.known_total,
                dispatchers=self.backend.dispatchers, rpc_batch=self.backend.rpc_batch,
            )
        settled = False
        try:
            self.serve()
            self.settle(self.report)
            settled = True
        finally:
            if not settled:
                # Failing (a sink, the joblog or the input raised, or an
                # interrupt): kill what runs, account for it, and call no
                # more user code: the sink may be what raised.
                with self.lock:
                    self.stopping = True
                    running = self.active
                if running:
                    self.backend.cancel_all()
                self.settle(self.salvage)
            # Idle threads only need to take a _STOP sentinel; a thread still
            # wedged in the backend gets a short join and is left behind.
            pool.shutdown(time.monotonic() + 0.5)
            self.finish()
        return self.summary

    def serve(self) -> None:
        """Fill, wait and report until no job is running or can start.

        The caller's thread; it takes ``lock`` to fill and to decide how
        long to wait, and handles events without it.
        """
        while True:
            with self.lock:
                if self.error is not None:
                    raise self.error
                self.wake_posted = True  # looking now: no wake-up needed
                self.stalled = False
                more = self.fill()
                if self.active == 0 and (self.stopping or (self.exhausted and not self.retry_q)):
                    return
                if self.halt_deadline is not None and time.monotonic() >= self.halt_deadline:
                    return  # --halt now grace spent: abandon the stragglers
                wait = 0.0 if more else self.next_wait()
                self.wake_posted = False
            self.take_events(wait, self.report)

    def fill(self) -> bool:
        """Admit and hand out jobs until ``admit`` has none (caller, locked).

        A ``--dry-run`` job is completed here instead; one per call, so
        its line is emitted before the next is admitted.  Returns True
        when it handled one.
        """
        while True:
            nxt = self.admit()
            if nxt is None:
                return False
            job, slot = nxt
            if self.dry_run:
                self.complete(job, slot, self.synthetic(
                    job, slot, 0, JobState.SUCCEEDED, stdout=job.command + "\n"
                ))
                return True
            self.pool.submit(job, slot, self.active)

    def next_wait(self) -> Optional[float]:
        """Seconds until a timed wait is due (caller, locked); None = none."""
        waits = []
        if self.halt_deadline is not None:
            waits.append(self.halt_deadline - time.monotonic())
        if not self.stopping:
            if self.gate_at is not None:
                waits.append(self.gate_at - time.monotonic())
            if self.retry_q:
                # A retry that fell due since ``fill`` looked is admitted
                # now if a slot is free and no gate refused it (``gate_at``
                # times that start); with every slot busy, the next
                # completion admits it.
                backoff = self.retry_q.earliest_at() - time.time()
                if backoff > 0 or (self.active < self.jobs_cap and self.gate_at is None):
                    waits.append(backoff)
        return max(0.0, min(waits)) if waits else None

    def take_events(self, wait: Optional[float], handle: Callable[[tuple], None]) -> None:
        """Handle events until a wake-up, or for ``wait`` seconds (None = no
        limit).  The caller's thread, not holding ``lock``."""
        deadline = None if wait is None else time.monotonic() + wait
        get = self.events.get
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
            if self.stalled and self.posted - self.reported < self.backlog_cap:
                return  # caught up: refill the slots admission paused

    def report(self, item: tuple) -> None:
        """Hand one event's result to --results, the sink and progress
        (caller, unlocked)."""
        op, payload, done, failed = item
        if op == _SKIP:
            self.sequencer.skip(payload)
            return
        self.reported += 1
        if self.results_writer is not None and not self.dry_run:
            self.results_writer.write(payload)
        if self.sequencer is not None:
            self.sequencer.push(payload)
        if self.progress is not None:
            from repro.core.progress import Progress

            self.progress(Progress(
                done=done, failed=failed, total=self.known_total,
                elapsed=time.time() - self.wall_start,
            ))

    def salvage(self, item: tuple) -> None:
        """A failing run's event: write --results only, call no user code
        (caller, unlocked).

        The joblog already holds the job, so without its ``--results``
        files ``--resume`` would skip it for good.  The first error stops
        the writing: the writer may be what failed.
        """
        if item[0] == _PUSH and self.results_writer is not None and not self.dry_run:
            try:
                self.results_writer.write(item[1])
            except Exception:
                self.results_writer = None

    def settle(self, handle: Callable[[tuple], None]) -> None:
        """Wait out in-flight jobs within the grace window, abandon the rest.

        The caller's thread; it takes ``lock`` for each look.  Each job
        still running at the deadline gets a synthetic KILLED result so
        the joblog and summary account for it; the slot thread running it
        (if it ever returns) finds it gone and records nothing.  Every
        event left is then handled by ``handle``.
        """
        deadline = time.monotonic() + self.options.halt_grace
        if self.halt_deadline is not None:
            deadline = min(deadline, self.halt_deadline)
        while True:
            with self.lock:
                self.stopping = True
                if self.active == 0:
                    break
                self.wake_posted = False
            left = deadline - time.monotonic()
            self.take_events(max(0.01, left), handle)
            if left <= 0:
                break
        with self.lock:
            for job in self.in_flight.values():
                self.record(job, self.synthetic(
                    job, 0, -1, JobState.KILLED, stderr="abandoned in flight at shutdown"
                ))
            self.in_flight.clear()
            self.active = 0
        while not self.events.empty():
            self.take_events(0.0, handle)

    def finish(self) -> None:
        """Close the run's files and backend, and fill in the summary's
        run-wide fields (caller, after the slot threads are stopped)."""
        summary, backend = self.summary, self.backend
        summary.halted = self.halt.triggered
        summary.halt_reason = self.halt.reason
        summary.wall_time = time.time() - self.wall_start
        if isinstance(self.mem_probe, _MemAvailableProbe):
            self.mem_probe.close()
        try:
            if self.joblog is not None:
                self.joblog.close()
            # Data- and control-plane counters land on the summary so both
            # the run report and the tracer's RUN_END carry them.
            summary.staging = backend.staging_stats()
            summary.rpc = backend.control_plane_stats()
            summary.coordinator_rss = _coordinator_rss()
            if self.tracer is not None:
                self.tracer.run_finished(summary)
        finally:
            backend.close()

    # -- slot threads; the stages after run_slot also run in the caller's fill --
    def run_slot(self, job: Job, slot: int) -> None:
        """A slot thread's turn: run jobs for as long as one is admitted.

        Runs each job without ``lock``, a backend's exception contained
        as a failed result, then takes ``lock`` to complete that job and
        admit the next.
        """
        lock, complete, admit = self.lock, self.complete, self.admit
        run_job, options, tracer = self.backend.run_job, self.options, self.tracer
        while True:
            if tracer is not None:
                tracer.job_running(job.seq, job.attempt, slot)
            try:
                result = run_job(job, slot, options, timeout=self.timeout)
            except Exception as exc:  # backend bug; convert to a failed result
                result = self.synthetic(
                    job, slot, 126, JobState.FAILED, stderr=f"backend error: {exc!r}"
                )
            with lock:
                try:
                    complete(job, slot, result)
                    nxt = admit()
                except BaseException as exc:  # re-raised on the caller's thread
                    if self.error is None:
                        self.error = exc
                    self.stopping = True
                    self.wake()
                    return
            if nxt is None:
                return
            job, slot = nxt

    def synthetic(
        self, job: Job, slot: int, exit_code: int, state: JobState,
        stdout: str = "", stderr: str = "",
    ) -> JobResult:
        """A result no backend produced: a dry run's, a backend error's, or
        an abandoned job's (any thread)."""
        now = time.time()
        return JobResult(
            job.seq, job.args, job.command, exit_code, stdout, stderr, now, now,
            slot, self.backend.host, job.attempt, state,
        )

    def admit(self) -> Optional[tuple[Job, int]]:
        """Stamp the next job onto the lowest free slot; None if none can start.

        A ready retry outranks fresh input.  Runs under ``lock`` on
        whichever thread holds it.  When a start has to wait for time to
        pass (a gate, a retry backoff) or the run may be over, it wakes
        the caller's thread, which does the waiting.
        """
        if self.stopping:
            if self.active == 0:
                self.wake()
            return None
        self.gate_at = None
        if self.posted - self.reported >= self.backlog_cap:
            self.stalled = True  # the caller refills once it has caught up
            return None
        slots = self.slots
        slot = slots.acquire()
        if slot is None:
            return None  # every slot busy: a completion will admit
        try:
            if self.gated:
                wait = self.gate_wait()
                if wait > 0:
                    slots.release(slot)
                    self.gate_at = time.monotonic() + wait
                    self.wake()
                    return None
            retry_q = self.retry_q
            job = retry_q.pop_ready(time.time()) if retry_q else None
            if job is None and not self.exhausted:
                job = self.pull_fresh()
            if job is None:
                slots.release(slot)
                if retry_q or self.active == 0:
                    self.wake()
                return None
            job.attempt += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.attempt_started(job.seq, job.attempt, slot)
            if self.pipe_mode and job.stdin_data is None:
                job.stdin_data = job.args[0]
                job.args = (f"<block {job.seq}>",)
            job.command = self.describe(job.args, job.seq, slot)
            if self.stream_lines:
                job.stream = self.sequencer.stream_for(job, slot)
        except BaseException:
            slots.release(slot)
            raise
        job.state = JobState.RUNNING
        if self.options.delay > 0:
            self.last_dispatch = time.monotonic()
        self.summary.n_dispatched += 1
        self.active += 1
        self.in_flight[job.seq] = job
        if tracer is not None:
            tracer.job_dispatched(job.seq, job.attempt, slot)
        return job, slot

    def gate_wait(self) -> float:
        """Seconds until --delay/--load/--memfree let a job start (0 = now).

        Under ``lock``.  A refused throttle probe doubles the next poll
        interval, up to ``_THROTTLE_POLL_MAX``; a passing one resets it.
        """
        options = self.options
        if options.delay > 0:
            wait = self.last_dispatch + options.delay - time.monotonic()
            if wait > 0:
                return wait
        if options.max_load is not None or options.memfree is not None:
            if (options.max_load is not None and self.load_probe() > options.max_load) or (
                options.memfree is not None and self.mem_probe() < options.memfree
            ):
                wait = self.throttle_poll
                self.throttle_poll = min(wait * 2.0, _THROTTLE_POLL_MAX)
                return wait
            self.throttle_poll = _THROTTLE_POLL_INITIAL
        return 0.0

    def pull_fresh(self) -> Optional[Job]:
        """The next fresh job off the input stream (None = exhausted).

        Under ``lock``.
        """
        for args in self.groups:
            seq = next(self.seq_counter)
            if seq in self.skip:
                self.summary.n_skipped += 1
                if self.ordered:
                    self.events.put((_SKIP, seq, 0, 0))
                continue
            if self.tracer is not None:
                self.tracer.job_submitted(seq)
            return Job(seq=seq, args=args)
        self.exhausted = True
        return None

    def describe(self, args: ArgGroup, seq: int, slot: int) -> str:
        """The command a job records: its rendered template, or
        ``func(args...)`` for a callable backend (under ``lock``)."""
        template = self.template
        if template is None:
            return f"{self.callable_repr}({', '.join(args)})"
        if self.pipe_mode:
            # --pipe: the block goes to stdin, not the command line.
            if self.static_command is not None:
                return self.static_command
            return template.render(("",), seq=seq, slot=slot).rstrip()
        return template.render(args, seq=seq, slot=slot, quote=self.options.quote)

    def complete(self, job: Job, slot: int, result: JobResult) -> None:
        """Account for one finished attempt, then free its slot.

        Under ``lock``.  The slot goes back only after the joblog write,
        the retry re-queue and the halt check, so a freed slot never
        outruns its own completion (retry fairness).
        """
        if self.in_flight.pop(job.seq, None) is None:
            return  # abandoned at shutdown and accounted for there
        try:
            self.record(job, result)
            halt = self.halt
            if halt.triggered and not self.stopping:
                self.stopping = True
                if halt.kill_running:
                    self.backend.cancel_all()
                    self.halt_deadline = time.monotonic() + self.options.halt_grace
                self.wake()
        finally:
            self.slots.release(slot)
            self.active -= 1

    def record(self, job: Job, result: JobResult) -> None:
        """Route one attempt's result to the joblog, retry queue and summary.

        Under ``lock``.  With an output sink the summary's retention
        window records a copy without ``stdout``: the sink, fed by
        ``sequencer``, is the text's one owner, so a long run does not
        hold every job's output after printing it, as GNU Parallel deletes
        its output buffer files once printed.  ``stderr`` and ``value``
        stay for failure reports and ``Parallel.map``.  The full result
        goes to the caller's thread when that thread has work for it
        (``report_all``, or output for the sink).
        """
        if self.joblog is not None and not self.dry_run:
            self.joblog.write(result)
        state = result.state
        tracer = self.tracer
        if (
            (state is JobState.FAILED or state is JobState.TIMED_OUT)
            and not self.dry_run
            and should_retry(job, result.exit_code, self.options.retries)
            and not self.halt.triggered
        ):
            job.state = JobState.PENDING
            options = self.options
            delay = retry_backoff_delay(
                job.attempt, options.retry_delay, options.retry_delay_max, self.retry_rng
            )
            job.eligible_at = time.time() + delay if delay > 0 else 0.0
            if tracer is not None:
                tracer.attempt_finished(
                    job, result, retried=True, eligible_at=job.eligible_at
                )
            self.retry_q.push(job)
            if delay > 0:
                self.wake()  # the caller's thread times the backoff
            return
        if tracer is not None:
            tracer.attempt_finished(job, result)
        job.state = state
        if state is JobState.SUCCEEDED and self.timeout_pct is not None:
            self.median.push(result.runtime)
            if len(self.median) >= 3:
                self.timeout = self.median.median() * self.timeout_pct
        summary = self.summary
        sink = self.sequencer is not None
        summary.record(_without_stdout(result) if sink and result.stdout else result)
        self.halt.record(state)
        if self.report_all or (sink and (result.stdout or result.stderr)):
            self.posted += 1
            self.events.put(
                (_PUSH, result, summary.n_completed + summary.n_skipped, summary.n_failed)
            )

    def wake(self) -> None:
        """Have the caller's thread look at the run again (one pending
        wake; under ``lock``)."""
        if not self.wake_posted:
            self.wake_posted = True
            self.events.put(_WAKE)


def _without_stdout(r: JobResult) -> JobResult:
    """``r`` with ``stdout=""``: the record a sink-fed summary retains.

    Built positionally: ``dataclasses.replace`` walks the field list
    per call and costs twice as much on the per-job path.
    """
    return JobResult(
        r.seq, r.args, r.command, r.exit_code, "", r.stderr, r.start_time,
        r.end_time, r.slot, r.host, r.attempt, r.state, r.value,
    )
