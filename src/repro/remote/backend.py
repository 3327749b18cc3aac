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

import threading
import time
from typing import Optional, Sequence

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options
from repro.core.template import CommandTemplate
from repro.errors import StagingError, TransportError
from repro.remote.hosts import HostLease, HostPool, HostSpec, hosts_from_options
from repro.remote.staging import StagingPolicy
from repro.remote.transport import Transport

__all__ = ["RemoteBackend"]

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
        self.ban_after = options.ban_after
        self.pool = HostPool(self._hosts, ban_after=self.ban_after)
        self.staging = StagingPolicy.from_options(options)
        self._staging_opts = options
        with self._wd_lock:
            self._workdirs = {}
        self._cancelled = threading.Event()

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
        return self.staging.staging_stats()

    def cancel_all(self) -> None:
        self._cancelled.set()
        self.pool.abort()
        self.transport.cancel_all()

    def close(self) -> None:
        self.pool.abort()
        self.transport.close()

    # -- per-job path --------------------------------------------------------
    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        start = time.time()
        staging = self._staging_for(options)
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
        """Fetch the job's ``--return`` files, then ``--cleanup``.

        A successful job's missing return file raises StagingError (its
        result becomes exit 255); a failed job's fetch salvages what is
        there.  Cleanup runs either way, in the ``finally``.
        """
        tracer = self._tracer
        staged = list(
            dict.fromkeys(
                rel for _src, rel in staging.transfer_paths(job, lease_slot)
            )
        )
        fetched: list[str] = []
        t0 = time.time()
        try:
            fetched = staging.stage_out(
                self.transport, host, job, lease_slot, workdir, job_ok=job_ok
            )
        finally:
            if tracer is not None and staging.returns:
                tracer.span(
                    "stage_out", t0, time.time(), seq=job.seq, slot=slot,
                    host=host.name, cat="staging",
                )
            t1 = time.time()
            staging.cleanup_remote(
                self.transport, host, staged, workdir, fetched=tuple(fetched)
            )
            if tracer is not None and staging.cleanup:
                tracer.span(
                    "cleanup", t1, time.time(), seq=job.seq, slot=slot,
                    host=host.name, cat="staging",
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
