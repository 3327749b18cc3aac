"""Local shell backend: runs rendered commands as real subprocesses.

This is the engine's production path — functionally the same as what GNU
Parallel does (fork + exec via the shell, skipped for a plain command
the shell would only have exec'd), with output capture, timeouts,
working-directory and niceness support, and kill-on-halt.

Running a job is :func:`~repro.core.backends.spawn.run_command`, which
picks its leg (``posix_spawn`` + shared pipe reaper, or ``fork_exec``)
from its inputs; this backend decides those inputs once per run and
maps the outcome to a :class:`~repro.core.job.JobResult`.  In-process
jobs take the ``fork_exec`` leg (``--spawn-path popen`` names it):
``os.posix_spawn`` holds the GIL through vfork→exec, so the ``-j`` slot
threads would queue behind each other's spawns, while ``fork_exec``
lets them overlap.  The slot thread feeds the job's stdin (``--pipe``)
and reads its two output pipes itself, handing stdout on at each
newline for ``--linebuffer``.  A launcher (the posix leg) is built only
for an explicit ``--spawn-path posix``; ``--wd``, ``--pipe``,
``--linebuffer`` and a platform without ``posix_spawn`` never build
one, and only a run that could use the posix leg probes for it.  The
``hthpc`` benchmark measures what the posix leg costs over a bare spawn
(``spawn_layer_overhead_us``) and against the ``fork_exec`` leg
(``run_job_us_posix``/``run_job_us_popen``); see DESIGN.md, "Dispatch
overhead anatomy".

``--dispatchers N`` (N > 1) lifts dispatch onto the sharded
:class:`~repro.core.backends.pool.DispatcherPool`: N worker processes
each run their jobs through ``run_command`` (the ``fork_exec`` leg, in
the run's ``--wd`` directory) and the backend's ``run_job`` becomes a
thin dispatch-and-wait over the shard pipe.  Result decoding, state
mapping and everything above (sequencer, joblog, retries, halt) stay in
this process, so sharded output is byte-identical to ``--dispatchers 1``.
``--pipe`` and ``--linebuffer``, which the workers do not cover, resolve
to a single in-process dispatcher, and a pool whose every shard has died
hands its jobs back to the in-process leg.
"""

from __future__ import annotations

import locale
import os
import shutil
import tempfile
import time
from typing import TYPE_CHECKING

from repro.core.backends.base import Backend
from repro.core.backends.spawn import (
    Completed,
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    decode_output,
    merged_env,
    run_command,
    spawn_supported,
)
from repro.core.job import Job, JobResult, JobState
from repro.core.options import TMPDIR_WORKDIR, Options

if TYPE_CHECKING:  # imported when a pool is built: it pulls in multiprocessing
    from repro.core.backends.pool import DispatcherPool

__all__ = ["LocalShellBackend"]


class LocalShellBackend(Backend):
    """Executes each job's command string: through ``/bin/sh -c``, or,
    when the command is plain (no quoting, expansion, redirection or
    builtin), by exec'ing its words directly as the shell would.

    Each spawned process gets its own process group so that ``--halt now``
    and timeouts kill the whole job tree, not just its leader.
    """

    def __init__(self, shell: str = "/bin/sh"):
        self.shell = shell
        self.host = os.uname().nodename if hasattr(os, "uname") else "local"
        self._table = ProcessTable()
        #: Per-run merged environment cache (``prepare_run``): copying
        #: ``os.environ`` per job is pure hot-path waste.  The Options the
        #: cache was built from is held by strong reference and compared
        #: with ``is`` — an id() key can collide after a collection.
        self._run_env: dict[str, str] | None = None
        self._run_cwd: str | None = None
        self._run_opts: Options | None = None
        #: Lazily-created ``--wd ...`` per-run tempdir, removed in close().
        self._tmp_workdir: str | None = None
        #: posix_spawn leg state: a launcher built per run (None = the run
        #: takes the fork_exec leg) and the shared reaper it feeds.
        self._launcher: SpawnLauncher | None = None
        self._reapers = LiveReaper()
        #: Sharded dispatch state (``--dispatchers N``, N > 1): worker
        #: processes each running their jobs through ``run_command`` (see
        #: ``repro.core.backends.pool``).
        self._pool: DispatcherPool | None = None
        self._encoding = locale.getpreferredencoding(False)

    def renew(self) -> "LocalShellBackend":
        return LocalShellBackend(shell=self.shell)

    def prepare_run(self, options: Options) -> None:
        self._run_env = merged_env(options.env)
        self._run_cwd = self._cwd_for(options)
        self._run_opts = options
        self._setup_spawn_path(options)

    def _setup_spawn_path(self, options: Options) -> None:
        """Decide the spawn path for this run and build its machinery."""
        if self._pool is not None:
            # A previous run's pool: dispatcher count or options changed,
            # or this run is unsharded — rebuild from scratch either way
            # (worker env/cwd/shard count are baked in at start()).
            self._pool.close()
            self._pool = None
        if self._launcher is not None:
            self._launcher.close()
        # In-process jobs (and those a dead pool hands back) take the
        # fork_exec leg unless the posix leg was asked for; only such a
        # run pays for the posix_spawn probe.
        self._launcher = (
            SpawnLauncher(self.shell, env=self._run_env)
            if (options.spawn_path == "posix"
                and options.workdir is None  # posix_spawn has no cwd attribute
                and not options.pipe_mode  # every job carries stdin
                and not options.linebuffer  # stdout streams from the slot thread
                and spawn_supported())
            else None
        )
        n_disp = options.effective_dispatchers()
        # Workers run whole jobs: no stdin to feed, no stream to a slot thread.
        if n_disp > 1 and not options.pipe_mode and not options.linebuffer:
            from repro.core.backends.pool import DispatcherPool

            self._pool = DispatcherPool(
                n_disp,
                shell=self.shell,
                env=self._run_env,
                nice=options.nice,
                cwd=self._run_cwd,
                on_event=self._pool_event,
                batch=options.effective_rpc_batch(),
            )
            self._pool.start()

    def _pool_event(self, name: str, shard: int, n: int) -> None:
        """Pool event hook → trace instant.

        ``rpc_frame`` instants carry the frame's record count (the
        per-shard frame-size series that makes batching behavior visible
        in the Chrome trace); ``dispatcher_death`` carries the number of
        re-queued jobs.
        """
        if self._tracer is None:
            return
        if name == "rpc_frame":
            self._tracer.instant(name, shard=shard, n_jobs=n, lane=shard + 1)
        else:
            self._tracer.instant(name, shard=shard, requeued=n)

    def intern_template(self, template, options: Options) -> None:
        """Ship the command template to the dispatcher shards once.

        Only string-mode templates with replacement tokens qualify:
        argv-mode rendering goes through ``shlex.join`` quoting that a
        worker-side string rebuild would not reproduce, and ``--pipe``
        rewrites the argument at dispatch time.  Unsupported shapes
        simply keep sending raw rendered commands — a cost difference,
        never a semantic one.
        """
        if self._pool is None or template is None:
            return
        if getattr(template, "_argv_mode", True):
            return
        if not getattr(template, "has_any_token", False):
            return
        if options.pipe_mode:
            return
        self._pool.intern_template(template.source, quote=options.quote)

    def control_plane_stats(self) -> dict:
        """RPC frame counters for the run summary (empty when unsharded)."""
        if self._pool is None:
            return {}
        return self._pool.stats()

    @property
    def spawn_path(self) -> str:
        """The leg in-process jobs take this run (``"posix"``/``"popen"``);
        dispatcher shards always run ``run_command``'s fork_exec leg."""
        return "posix" if self._launcher is not None else "popen"

    @property
    def dispatchers(self) -> int:
        """Dispatcher shard count the current run resolved to."""
        return self._pool.n if self._pool is not None else 1

    @property
    def rpc_batch(self) -> int:
        """RPC frame size the current run resolved to (1 = unbatched)."""
        return self._pool.batch if self._pool is not None else 1

    def _env_for(self, options: Options) -> dict[str, str] | None:
        # Direct run_job callers (tests, wrappers) may skip prepare_run;
        # fall back to computing-and-caching on first use per options.
        if self._run_opts is not options:
            self.prepare_run(options)
        return self._run_env

    def _cwd_for(self, options: Options) -> str | None:
        """Resolve ``--wd`` for a run; ``...`` = one shared tempdir
        (created on first use, removed in :meth:`close`)."""
        if options.workdir != TMPDIR_WORKDIR:
            return options.workdir
        if self._tmp_workdir is None:
            self._tmp_workdir = tempfile.mkdtemp(prefix="repro-wd-")
        return self._tmp_workdir

    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        if self._table.cancelled.is_set():
            return self._result(job, slot, -1, "", "", time.time(), time.time(), JobState.KILLED)
        self._env_for(options)
        if self._pool is not None and self._pool.alive and job.stdin_data is None:
            return self._run_job_sharded(job, slot, options, timeout)
        return self._run_job_local(job, slot, options, timeout)

    # -- in-process runner ---------------------------------------------------
    def _run_job_local(
        self, job: Job, slot: int, options: Options, timeout: float | None
    ) -> JobResult:
        launcher = self._launcher
        posix = launcher is not None and job.stdin_data is None
        start = time.time()
        try:
            done = run_command(
                job.command,
                table=self._table,
                launcher=launcher,
                reaper=self._reapers.get() if posix else None,
                shell=self.shell,
                env=self._run_env,
                cwd=self._run_cwd,
                stdin=job.stdin_data,
                timeout=timeout,
                nice=options.nice,
                stream=job.stream,
                encoding=self._encoding,
            )
        except OSError as exc:
            return self._result(
                job, slot, 127, "", f"spawn failed: {exc}", start, time.time(),
                JobState.FAILED,
            )
        if self._tracer is not None:
            # The reap span is collection: on the fork_exec leg the
            # poll loop over the job's pipes and the wait, so both legs'
            # spans include the job's runtime.
            path = "posix" if posix else "popen"
            self._tracer.span(
                "spawn", done.start, done.spawned, seq=job.seq, slot=slot,
                path=path, pid=done.pid, direct=done.direct,
            )
            if done.timed_out:
                self._tracer.instant(
                    "proc_timeout_kill", seq=job.seq, slot=slot,
                    pid=done.pid, timeout=timeout,
                )
            self._tracer.span(
                "reap", done.spawned, done.end, seq=job.seq, slot=slot, path=path
            )
        return self._completed(job, slot, done)

    # -- sharded dispatch path ------------------------------------------------
    def _run_job_sharded(
        self, job: Job, slot: int, options: Options, timeout: float | None
    ) -> JobResult:
        pool = self._pool
        assert pool is not None
        start = time.time()
        # args/seq/slot ride along so an interned-template pool can send
        # the argument delta instead of the rendered command; the worker
        # re-render is byte-identical to job.command by construction.
        reply = pool.run(
            job.command, timeout=timeout, cancelled=self._table.cancelled,
            args=job.args, seq=job.seq, slot=slot,
        )
        end = time.time()
        if reply.kind == "lost":
            # Every shard died with this job in flight: the loss is an
            # infrastructure fault, not a job outcome.  Re-run it
            # in-process — the same at-least-once re-execution contract
            # the cross-shard re-queue already gives.
            return self._run_job_local(job, slot, options, timeout)
        if reply.kind != "done":
            # "err": the worker's spawn itself failed (exit 127, same
            # contract as the in-process spawn-failure arm).
            message = reply.stderr.decode(self._encoding, errors="replace")
            return self._result(
                job, slot, 127, "", message, start, end, JobState.FAILED
            )
        if self._tracer is not None:
            # One span per job on the worker's timeline: lane k+1 groups
            # each shard's jobs under its own pid row in the Chrome trace
            # (lane 0 is the scheduler process itself).
            self._tracer.span(
                "spawn", reply.start, reply.start + reply.spawn_dur,
                seq=job.seq, slot=slot, path="popen", pid=reply.pid,
                shard=reply.shard, lane=reply.shard + 1,
                lane_name=f"dispatcher {reply.shard}",
            )
        return self._completed(job, slot, Completed(
            reply.pid, reply.returncode, reply.stdout, reply.stderr,
            reply.start or start, reply.start + reply.spawn_dur,
            reply.end or end, reply.timed_out,
        ))

    # -- shared helpers ------------------------------------------------------
    def _completed(self, job: Job, slot: int, done: Completed) -> JobResult:
        """Either dispatch path's outcome → the job's result."""
        if done.timed_out:
            state = JobState.TIMED_OUT
        elif done.returncode == 0:
            state = JobState.SUCCEEDED
        elif self._table.cancelled.is_set():
            state = JobState.KILLED
        else:
            state = JobState.FAILED
        return self._result(
            job, slot, done.returncode,
            decode_output(done.stdout, self._encoding),
            decode_output(done.stderr, self._encoding),
            done.start, done.end, state,
        )

    def cancel_all(self) -> None:
        n_procs = self._table.kill_all()
        if self._tracer is not None:
            self._tracer.instant("cancel_all", n_procs=n_procs)
        if self._pool is not None:
            # Cancellation fan-out: each shard SIGTERMs every job group it
            # owns (jobs mid-dispatch are covered by run_job's post-send
            # cancelled check).
            self._pool.kill_all()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._reapers.close()
        if self._launcher is not None:
            self._launcher.close()
            self._launcher = None
        tmp, self._tmp_workdir = self._tmp_workdir, None
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    def _result(
        self,
        job: Job,
        slot: int,
        code: int,
        stdout: str,
        stderr: str,
        start: float,
        end: float,
        state: JobState,
    ) -> JobResult:
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=job.command,
            exit_code=code,
            stdout=stdout,
            stderr=stderr,
            start_time=start,
            end_time=end,
            slot=slot,
            host=self.host,
            attempt=job.attempt,
            state=state,
        )
