"""Centralized multi-host execution backend (``-S``/``--sshlogin``).

One coordinator, many hosts: the existing scheduler keeps owning all
concurrency (worker pool, retries, halt, joblog, results) and this backend
only decides *where* each granted job runs.  Per job:

1. lease the lowest free slot on the least-loaded non-banned host;
2. ensure the host workdir (``--workdir``; ``...`` = per-run tempdir);
3. stage ``--basefile``/``--transferfile`` inputs through the transport
   (content-addressed: a file already on the host is never re-pushed —
   see :mod:`repro.remote.cache`);
4. re-render the command with the *per-host* slot (GNU Parallel's ``{%}``
   is 1-based within each host — the paper's GPU-isolation idiom must
   bind to a device index on every node independently) and the ``{host}``
   token;
5. execute, fetch ``--return`` outputs, ``--cleanup``.

With ``--stage-ahead N`` the backend also owns a bounded *staging lane*
(a small thread pool built in :meth:`RemoteBackend.prepare_run`): the
scheduler feeds it up to N not-yet-dispatchable jobs, whose stage-in is
prefetched to a tentative host while earlier jobs still compute, and
``--cleanup`` (plus failed-job output salvage) runs on the lane, off the
dispatch critical path.  Prefetch is purely advisory — a prefetch error
is swallowed (with the cache entry invalidated) and the job's own
synchronous staging retries through the ordinary error machinery, so
semantics match ``--stage-ahead 0`` exactly.

The error split drives health:

* nonzero exit / timeout → ordinary :class:`JobResult` (the scheduler's
  retry policy applies, same as local);
* :class:`~repro.errors.StagingError` → the job fails (exit 255), the
  host stays healthy;
* :class:`~repro.errors.TransportError` → the *host* failed: count it,
  ban after ``ban_after`` consecutive failures, invalidate everything the
  cache believed about the host, and **re-place the same attempt on
  another host** (host-hopping) — in-flight jobs are requeued, never
  dropped, and the joblog/results accounting stays identical to a local
  run.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional, Sequence

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options
from repro.core.template import CommandTemplate
from repro.errors import StagingError, TransportError
from repro.remote.hosts import HostLease, HostPool, HostSpec, hosts_from_options
from repro.remote.staging import StagingPolicy
from repro.remote.transport import Transport

__all__ = ["RemoteBackend"]

#: Sentinel telling a staging-lane worker to exit.
_STOP = None

#: Staging-lane thread-pool ceiling: enough to keep a handful of hosts'
#: links busy without turning prefetch into its own contention source.
_LANE_MAX_WORKERS = 4


class _StagingLane:
    """Bounded thread pool for off-critical-path data motion.

    Carries two kinds of work: *prefetch* (stage-in for queued jobs ahead
    of slot availability) and *post-job* motion (``--cleanup`` removes,
    failed-job output salvage).  Tasks are plain callables; the lane
    counts in-flight work so :meth:`drain` can hand a quiesced data plane
    to ``backend.close()``.
    """

    def __init__(self, workers: int):
        self._q: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pending = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._threads = [
            threading.Thread(
                target=self._loop, daemon=True, name=f"repro-staging-{i + 1}"
            )
            for i in range(max(1, workers))
        ]
        for t in self._threads:
            t.start()

    def submit(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._pending += 1
        self._q.put(fn)

    def _loop(self) -> None:
        while True:
            fn = self._q.get()
            if fn is _STOP:
                return
            try:
                fn()
            finally:
                with self._idle:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until all submitted work has finished (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, timeout: float = 5.0) -> None:
        self.drain(timeout)
        for _ in self._threads:
            self._q.put(_STOP)
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))


class RemoteBackend(Backend):
    """Places each job on a host roster through a pluggable transport."""

    host = "remote"

    def __init__(
        self,
        hosts: Sequence[HostSpec],
        transport: Transport,
        template: Optional[CommandTemplate] = None,
        ban_after: int = 3,
    ):
        self._hosts = list(hosts)
        self.transport = transport
        self.template = template
        self.ban_after = ban_after
        self.pool = HostPool(self._hosts, ban_after=ban_after)
        self.staging = StagingPolicy()
        self._staging_opts: Optional[Options] = None
        self._workdirs: dict[str, str] = {}
        self._wd_lock = threading.Lock()
        self._cancelled = threading.Event()
        #: Off-critical-path staging lane (``--stage-ahead`` > 0).
        self._lane: Optional[_StagingLane] = None
        #: seq -> (host, staged relpaths) recorded by prefetch, so the
        #: lane's extra references are released when the job completes.
        self._prefetched: dict[int, tuple[HostSpec, list[str]]] = {}
        #: Seqs with a prefetch task submitted but not yet landed.
        self._prefetch_submitted: set[int] = set()
        #: Seqs whose job finished before their prefetch task ran: the
        #: late prefetch must self-release instead of recording (a record
        #: nobody will ever claim would leak its cache references).
        self._prefetch_claimed: set[int] = set()
        self._prefetch_lock = threading.Lock()
        self._prefetch_rr = 0
        self._prefetched_jobs = 0
        self._prefetch_errors = 0

    @classmethod
    def from_options(
        cls,
        options: Options,
        transport: Transport,
        template: Optional[CommandTemplate] = None,
    ) -> "RemoteBackend":
        """Build from ``Options`` (roster via ``-S``/``--sshloginfile``)."""
        return cls(
            hosts=hosts_from_options(options),
            transport=transport,
            template=template,
            ban_after=options.ban_after,
        )

    @property
    def total_slots(self) -> int:
        """Roster-wide concurrency: the scheduler's job cap for this run."""
        return self.pool.total_slots

    def hosts_summary(self) -> dict[str, dict]:
        """Per-host dispatch/health snapshot (reporting, tests)."""
        return self.pool.summary()

    # -- run lifecycle -------------------------------------------------------
    def prepare_run(self, options: Options) -> None:
        self.ban_after = getattr(options, "ban_after", self.ban_after)
        self.pool = HostPool(self._hosts, ban_after=self.ban_after)
        self.staging = StagingPolicy.from_options(options)
        self._staging_opts = options
        with self._wd_lock:
            self._workdirs = {}
        self._cancelled = threading.Event()
        with self._prefetch_lock:
            self._prefetched = {}
            self._prefetch_submitted = set()
            self._prefetch_claimed = set()
            self._prefetch_rr = 0
            self._prefetched_jobs = 0
            self._prefetch_errors = 0
        if self._lane is not None:
            self._lane.close()
            self._lane = None
        stage_ahead = getattr(options, "stage_ahead", 0)
        remote_hosts = [h for h in self._hosts if not h.is_local]
        if stage_ahead > 0 and self.staging.active and remote_hosts:
            self._lane = _StagingLane(
                workers=min(_LANE_MAX_WORKERS, len(remote_hosts), stage_ahead)
            )

    def _staging_for(self, options: Options) -> StagingPolicy:
        # Direct run_job callers (tests, wrappers) may skip prepare_run;
        # build-and-cache the staging policy on first use per options.
        # The cached Options is held by strong reference and compared with
        # ``is``: an id() key can collide once the original is collected.
        if self._staging_opts is not options:
            self.staging = StagingPolicy.from_options(options)
            self._staging_opts = options
        return self.staging

    def renew(self) -> "RemoteBackend":
        """A fresh instance sharing the transport (sequential-run reuse)."""
        return RemoteBackend(
            hosts=self._hosts,
            transport=self.transport,
            template=self.template,
            ban_after=self.ban_after,
        )

    def staging_stats(self) -> dict:
        """Data-plane counters for the run summary."""
        stats = self.staging.staging_stats()
        with self._prefetch_lock:
            stats["prefetched_jobs"] = self._prefetched_jobs
            stats["prefetch_errors"] = self._prefetch_errors
        return stats

    def cancel_all(self) -> None:
        self._cancelled.set()
        self.pool.abort()
        self.transport.cancel_all()

    def close(self) -> None:
        self.pool.abort()
        if self._lane is not None:
            # Quiesce outstanding prefetch/cleanup before tearing down the
            # transport they run on.
            self._lane.close()
            self._lane = None
        self.transport.close()

    # -- stage-ahead (called by the scheduler, ahead of dispatch) -------------
    def prefetch_job(self, job: Job, options: Options) -> None:
        """Queue stage-in for a not-yet-dispatchable job on the lane.

        Picks a tentative host round-robin over the live roster and
        stages the job's ``--basefile``/``--transferfile`` inputs there
        through the content cache.  Purely advisory: any error is
        swallowed (the cache already invalidated the failed entry) and
        counted — the job's synchronous stage-in will redo the work and
        surface the error through the normal retry/host-hopping path.
        """
        if self._lane is None or self._cancelled.is_set():
            return
        staging = self._staging_for(options)
        if not staging.prefetchable:
            return
        host = self._pick_prefetch_host()
        if host is None:
            return
        with self._prefetch_lock:
            self._prefetch_submitted.add(job.seq)
        self._lane.submit(lambda: self._prefetch(host, job, staging))

    def _pick_prefetch_host(self) -> Optional[HostSpec]:
        candidates = [
            h for h in self._hosts
            if not h.is_local and not self.pool.is_banned(h.name)
        ]
        if not candidates:
            return None
        with self._prefetch_lock:
            host = candidates[self._prefetch_rr % len(candidates)]
            self._prefetch_rr += 1
        return host

    def _prefetch(self, host: HostSpec, job: Job, staging: StagingPolicy) -> None:
        t0 = time.time()
        try:
            workdir = self._workdir_for(host)
            staging.stage_basefiles(self.transport, host, workdir)
            staged = staging.stage_in(
                self.transport, host, job, slot=1, workdir=workdir,
                tracer=self._tracer,
            )
        except Exception as exc:
            if isinstance(exc, TransportError):
                staging.invalidate_host(host.name)
            with self._prefetch_lock:
                self._prefetch_errors += 1
                self._prefetch_submitted.discard(job.seq)
                self._prefetch_claimed.discard(job.seq)
            if self._tracer is not None:
                self._tracer.instant(
                    "prefetch_error", seq=job.seq, host=host.name,
                    error=str(exc), cat="staging",
                )
            return
        claimed = False
        with self._prefetch_lock:
            self._prefetched_jobs += 1
            self._prefetch_submitted.discard(job.seq)
            if job.seq in self._prefetch_claimed:
                # The job already finished (lane lagged behind dispatch):
                # release our references right here — no one else will.
                self._prefetch_claimed.discard(job.seq)
                claimed = True
            else:
                self._prefetched[job.seq] = (host, staged)
        if claimed:
            self._do_release(host, staged, staging)
        if self._tracer is not None:
            self._tracer.span(
                "stage_in", t0, time.time(), seq=job.seq,
                host=host.name, cat="staging", prefetch=True,
            )

    def _do_release(
        self, host: HostSpec, staged: list, staging: StagingPolicy
    ) -> None:
        try:
            staging.release_prefetched(
                self.transport, host, staged, self._workdir_for(host),
            )
        except Exception:
            pass  # best-effort: the run may be tearing down this host

    def _release_prefetch(self, job: Job, staging: StagingPolicy) -> None:
        """Drop the lane's extra references once the job is accounted for."""
        if self._lane is None:
            return
        with self._prefetch_lock:
            record = self._prefetched.pop(job.seq, None)
            if record is None:
                if job.seq in self._prefetch_submitted:
                    # Prefetch still queued behind us on the lane; mark the
                    # seq claimed so the late prefetch self-releases.
                    self._prefetch_claimed.add(job.seq)
                return
        host, staged = record
        self._lane.submit(lambda: self._do_release(host, staged, staging))

    # -- per-job path --------------------------------------------------------
    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        start = time.time()
        staging = self._staging_for(options)
        try:
            return self._place_job(job, slot, options, timeout, start, staging)
        finally:
            self._release_prefetch(job, staging)

    def _place_job(
        self,
        job: Job,
        slot: int,
        options: Options,
        timeout: Optional[float],
        start: float,
        staging: StagingPolicy,
    ) -> JobResult:
        # Enough budget for every host to fail once and the survivors to be
        # tried again, without spinning forever on a dead roster.
        max_hops = max(2 * len(self._hosts), 4)
        last_error: Optional[str] = None
        for _hop in range(max_hops):
            if self._cancelled.is_set():
                return self._failed(job, slot, -1, "cancelled", start,
                                    state=JobState.KILLED)
            lease = self.pool.acquire()
            if lease is None:
                if self._cancelled.is_set():
                    return self._failed(job, slot, -1, "cancelled", start,
                                        state=JobState.KILLED)
                reason = last_error or "no live hosts"
                return self._failed(
                    job, slot, 255, f"all hosts banned ({reason})", start
                )
            try:
                return self._run_on(lease, job, slot, options, timeout, start)
            except TransportError as exc:
                last_error = f"{lease.host.name}: {exc} [{exc.phase}]"
                banned_now = self.pool.record_failure(lease.host)
                # The host dropped mid-operation: nothing the cache
                # believed about its filesystem can be trusted, and a
                # re-placed job must not skip staging against stale state.
                staging.invalidate_host(lease.host.name)
                if self._tracer is not None:
                    self._tracer.instant(
                        "transport_error", seq=job.seq, slot=slot,
                        host=lease.host.name, phase=exc.phase,
                    )
                    if banned_now:
                        self._tracer.instant(
                            "host_banned", host=lease.host.name,
                            ban_after=self.pool.ban_after,
                        )
            except StagingError as exc:
                return self._failed(
                    job, slot, 255, f"staging failed: {exc}", start,
                    host=lease.host.name,
                )
            finally:
                self.pool.release(lease)
        return self._failed(
            job, slot, 255,
            f"gave up after {max_hops} placements (last: {last_error})", start,
        )

    def _run_on(
        self,
        lease: HostLease,
        job: Job,
        slot: int,
        options: Options,
        timeout: Optional[float],
        start: float,
    ) -> JobResult:
        host = lease.host
        staging = self._staging_for(options)
        workdir = self._workdir_for(host)
        command = job.command
        if self.template is not None:
            # The scheduler rendered with its global slot; the per-host
            # lease slot is what {%} must mean on a multi-host roster.
            command = self.template.render(
                job.args, seq=job.seq, slot=lease.slot,
                quote=options.quote, host=host.name,
            )
        # GNU Parallel skips --transferfile/--return/--basefile/--cleanup
        # on the ':' localhost: there is no transport hop, so a "transfer"
        # would be a same-path no-op and --cleanup would then delete the
        # user's original input/output files.
        stage = staging.active and not host.is_local
        staged: list[str] = []
        if stage:
            t0 = time.time()
            staging.stage_basefiles(self.transport, host, workdir)
            staged = staging.stage_in(
                self.transport, host, job, lease.slot, workdir,
                tracer=self._tracer,
            )
            if self._tracer is not None:
                self._tracer.span(
                    "stage_in", t0, time.time(), seq=job.seq, slot=slot,
                    host=host.name, cat="staging",
                )
        res = self.transport.execute(
            host, command,
            workdir=workdir,
            stdin=job.stdin_data,
            env=options.env or None,
            timeout=timeout,
            seq=job.seq,
            attempt=job.attempt,
        )
        # The transport round-tripped: whatever the job itself did, the
        # host is healthy — reset its failure streak.
        self.pool.record_success(host)
        job_ok = res.exit_code == 0 and not res.timed_out
        if stage:
            self._stage_out_and_cleanup(
                host, staging, job, lease.slot, slot, workdir, job_ok
            )
        if res.timed_out:
            state = JobState.TIMED_OUT
        elif job_ok:
            state = JobState.SUCCEEDED
        else:
            state = JobState.FAILED
        if self._cancelled.is_set() and state is JobState.FAILED:
            state = JobState.KILLED
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=command,
            exit_code=res.exit_code,
            stdout=res.stdout,
            stderr=res.stderr,
            start_time=start,
            end_time=time.time(),
            slot=slot,
            host=host.name,
            attempt=job.attempt,
            state=state,
        )

    def _stage_out_and_cleanup(
        self,
        host: HostSpec,
        staging: StagingPolicy,
        job: Job,
        lease_slot: int,
        slot: int,
        workdir: str,
        job_ok: bool,
    ) -> None:
        """Return-file fetch + cleanup; overlapped where semantics allow.

        A *successful* job's stage-out stays on the critical path — a
        missing return file is part of the job's result (StagingError →
        exit 255), which an async fetch could no longer report.  A failed
        job's salvage fetch is best-effort by definition, so with a lane
        it moves off-path, as does ``--cleanup`` in both cases.
        """
        tracer = self._tracer
        transport = self.transport
        staged = list(
            dict.fromkeys(
                rel for _src, rel in staging.transfer_paths(job, lease_slot)
            )
        )

        def salvage_and_cleanup(fetched: Optional[tuple]) -> None:
            # fetched=None means "salvage first" (failed job moved off-path).
            t0 = time.time()
            if fetched is None:
                fetched = ()
                try:
                    fetched = tuple(staging.stage_out(
                        transport, host, job, lease_slot, workdir, job_ok=False
                    ))
                except Exception:
                    pass  # salvage of a failed job is best-effort
            try:
                staging.cleanup_remote(
                    transport, host, staged, workdir, fetched=fetched
                )
            except Exception:
                pass  # cleanup is best-effort; the host may be gone
            if tracer is not None and staging.cleanup:
                tracer.span(
                    "cleanup", t0, time.time(), seq=job.seq, slot=slot,
                    host=host.name, cat="staging", deferred=True,
                )

        if job_ok:
            # A successful job's stage-out is part of its result: a missing
            # --return file must surface as StagingError, so it stays sync.
            # Cleanup still runs (in finally) even when the fetch fails.
            fetched: list[str] = []
            t0 = time.time()
            try:
                fetched = staging.stage_out(
                    transport, host, job, lease_slot, workdir, job_ok=True
                )
            finally:
                if tracer is not None and staging.returns:
                    tracer.span(
                        "stage_out", t0, time.time(), seq=job.seq, slot=slot,
                        host=host.name, cat="staging",
                    )
                if self._lane is not None:
                    snapshot = tuple(fetched)
                    self._lane.submit(lambda: salvage_and_cleanup(snapshot))
                else:
                    t1 = time.time()
                    staging.cleanup_remote(
                        transport, host, staged, workdir, fetched=tuple(fetched)
                    )
                    if tracer is not None and staging.cleanup:
                        tracer.span(
                            "cleanup", t1, time.time(), seq=job.seq,
                            slot=slot, host=host.name, cat="staging",
                        )
        else:
            if self._lane is not None:
                self._lane.submit(lambda: salvage_and_cleanup(None))
            else:
                fetched = []
                t0 = time.time()
                try:
                    fetched = staging.stage_out(
                        transport, host, job, lease_slot, workdir, job_ok=False
                    )
                finally:
                    if tracer is not None and staging.returns:
                        tracer.span(
                            "stage_out", t0, time.time(), seq=job.seq,
                            slot=slot, host=host.name, cat="staging",
                        )
                    staging.cleanup_remote(
                        transport, host, staged, workdir, fetched=tuple(fetched)
                    )

    def _workdir_for(self, host: HostSpec) -> str:
        with self._wd_lock:
            cached = self._workdirs.get(host.name)
        if cached is not None:
            return cached
        workdir = self.transport.ensure_workdir(host, self.staging.workdir)
        with self._wd_lock:
            self._workdirs[host.name] = workdir
        return workdir

    def _failed(
        self,
        job: Job,
        slot: int,
        code: int,
        message: str,
        start: float,
        state: JobState = JobState.FAILED,
        host: str = "",
    ) -> JobResult:
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=job.command,
            exit_code=code,
            stderr=message,
            start_time=start,
            end_time=time.time(),
            slot=slot,
            host=host or self.host,
            attempt=job.attempt,
            state=state,
        )
