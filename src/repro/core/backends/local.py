"""Local shell backend: runs rendered commands as real subprocesses.

This is the engine's production path — functionally the same as what GNU
Parallel does (fork + exec via the shell), with output capture, timeouts,
working-directory and niceness support, and kill-on-halt.

Two spawn paths share the same semantics (``--spawn-path`` selects):

``posix`` (the default on capable platforms)
    ``os.posix_spawn`` with ``POSIX_SPAWN_SETSID`` and argv/env vectors
    pre-built once per run (:class:`~repro.core.backends.spawn.SpawnLauncher`),
    with every job's stdout/stderr multiplexed through one shared
    ``selectors`` loop (:class:`~repro.core.backends.reaper.PipeReaper`)
    instead of a blocking per-job ``communicate()``.  The ``hthpc``
    benchmark measures what this layer costs over a bare spawn
    (``spawn_layer_overhead_us``) and against the Popen path
    (``popen_ratio``); see DESIGN.md, "Dispatch overhead anatomy".

``popen``
    The ``subprocess.Popen(start_new_session=True)`` path — the
    conservative reference implementation, and the automatic fallback
    whenever a feature combination needs it:

    ======================  ============================================
    condition               why Popen
    ======================  ============================================
    non-POSIX platform or   ``posix_spawn``/``POSIX_SPAWN_SETSID``
    old libc                unavailable (probed once)
    ``--wd``                ``posix_spawn`` has no working-directory
                            attribute
    ``--pipe`` /            per-job stdin needs ``communicate()``'s
    ``job.stdin_data``      write-side backpressure handling
    reaper loop died        defensive: the shared loop failed mid-run
    ======================  ============================================

Both paths keep the kill-by-process-group contract (``--halt now``,
``--timeout``), ``--nice`` via post-spawn ``setpriority(PRIO_PGRP)``,
output capture/ordering, and ``--tag``; the posix path additionally
streams ``--linebuffer`` output line-by-line as it arrives.

``--dispatchers N`` (N > 1) lifts both in-process paths onto the sharded
:class:`~repro.core.backends.pool.DispatcherPool`: N worker processes
each run a private launcher+reaper and the backend's ``run_job`` becomes
a thin dispatch-and-wait over the shard pipe.  Result decoding, state
mapping and everything above (sequencer, joblog, retries, halt) stay in
this process, so sharded output is byte-identical to ``--dispatchers 1``.
Unsupported combinations (``--wd``, ``--pipe``, ``--linebuffer``,
non-POSIX) silently resolve to a single in-process dispatcher, and a pool
whose every shard has died falls back to the in-process Popen path.
"""

from __future__ import annotations

import locale
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time

from repro.core.backends.base import Backend
from repro.core.backends.pool import DispatcherPool, pool_supported
from repro.core.backends.reaper import PipeReaper
from repro.core.backends.spawn import SpawnLauncher, spawn_supported
from repro.core.job import Job, JobResult, JobState
from repro.core.options import TMPDIR_WORKDIR, Options

__all__ = ["LocalShellBackend"]


def _universal_newlines(text: str) -> str:
    """The translation ``Popen(text=True)`` applies to captured output."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


class LocalShellBackend(Backend):
    """Executes each job's command string through ``/bin/sh -c``.

    Each spawned process gets its own process group so that ``--halt now``
    and timeouts kill the whole job tree, not just the shell.
    """

    def __init__(self, shell: str = "/bin/sh"):
        self.shell = shell
        self.host = os.uname().nodename if hasattr(os, "uname") else "local"
        #: In-flight processes by pid; the value is the pid again (posix
        #: spawn path) or the Popen object (popen path) — kill-by-group
        #: only needs the key.
        self._procs: dict[int, object] = {}
        self._lock = threading.Lock()
        self._cancelled = threading.Event()
        #: Per-run merged environment cache (``prepare_run``): copying
        #: ``os.environ`` per job is pure hot-path waste.  The Options the
        #: cache was built from is held by strong reference and compared
        #: with ``is`` — an id() key can collide after a collection.
        self._run_env: dict[str, str] | None = None
        self._run_opts: Options | None = None
        #: Lazily-created ``--wd ...`` per-run tempdir, removed in close().
        self._tmp_workdir: str | None = None
        #: posix_spawn fast path state (built per run by prepare_run).
        self._launcher: SpawnLauncher | None = None
        self._reaper: PipeReaper | None = None
        self._use_spawn = False
        #: Sharded dispatch state (``--dispatchers N``, N > 1): worker
        #: processes each running a private launcher+reaper (see
        #: ``repro.core.backends.pool``).
        self._pool: DispatcherPool | None = None
        self._dispatchers = 1
        self._pool_posix = False
        self._encoding = locale.getpreferredencoding(False)

    def prepare_run(self, options: Options) -> None:
        self._run_env = self._merged_env(options)
        self._run_opts = options
        self._setup_spawn_path(options)

    def _setup_spawn_path(self, options: Options) -> None:
        """Decide the spawn path for this run and build its machinery."""
        n_disp = 1
        if hasattr(options, "effective_dispatchers"):
            n_disp = options.effective_dispatchers()
        sharded = (
            n_disp > 1
            and pool_supported()
            and options.workdir is None  # workers have no --wd plumbing
            and not options.pipe_mode  # per-job stdin stays in-process
            and not options.linebuffer  # line streaming stays in-process
        )
        if self._pool is not None:
            # A previous run's pool: dispatcher count or options changed,
            # or this run is unsharded — rebuild from scratch either way
            # (worker env/shard count are baked in at start()).
            self._pool.close()
            self._pool = None
        if sharded:
            self._dispatchers = n_disp
            self._pool_posix = (
                getattr(options, "spawn_path", "auto") != "popen"
                and spawn_supported()
            )
            self._use_spawn = False  # jobs go to workers, not in-process
            batch = 1
            if hasattr(options, "effective_rpc_batch"):
                batch = options.effective_rpc_batch()
            self._pool = DispatcherPool(
                n_disp,
                shell=self.shell,
                env=self._run_env,
                use_posix=self._pool_posix,
                nice=options.nice,
                on_event=self._pool_event,
                batch=batch,
            )
            self._pool.start()
            return
        self._dispatchers = 1
        self._use_spawn = (
            getattr(options, "spawn_path", "auto") != "popen"
            and spawn_supported()
            and options.workdir is None  # posix_spawn has no cwd attribute
            and not options.pipe_mode  # per-job stdin: communicate() path
        )
        if self._use_spawn:
            if self._launcher is not None:
                self._launcher.close()
            self._launcher = SpawnLauncher(self.shell, env=self._run_env)
            if self._reaper is None:
                self._reaper = PipeReaper()

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
        if getattr(options, "pipe_mode", False):
            return
        self._pool.intern_template(template.source, quote=options.quote)

    def control_plane_stats(self) -> dict:
        """RPC frame counters for the run summary (empty when unsharded)."""
        if self._pool is None:
            return {}
        return self._pool.stats()

    @property
    def spawn_path(self) -> str:
        """The path the current run resolved to (``"posix"``/``"popen"``)."""
        if self._pool is not None:
            return "posix" if self._pool_posix else "popen"
        return "posix" if self._use_spawn else "popen"

    @property
    def dispatchers(self) -> int:
        """Dispatcher shard count the current run resolved to."""
        return self._dispatchers if self._pool is not None else 1

    @property
    def rpc_batch(self) -> int:
        """RPC frame size the current run resolved to (1 = unbatched)."""
        return self._pool.batch if self._pool is not None else 1

    @staticmethod
    def _merged_env(options: Options) -> dict[str, str] | None:
        if not options.env:
            return None  # inherit, no copy at all
        env = dict(os.environ)
        env.update(options.env)
        return env

    def _env_for(self, options: Options) -> dict[str, str] | None:
        # Direct run_job callers (tests, wrappers) may skip prepare_run;
        # fall back to computing-and-caching on first use per options.
        if self._run_opts is not options:
            self._run_env = self._merged_env(options)
            self._run_opts = options
            self._setup_spawn_path(options)
        return self._run_env

    def _cwd_for(self, options: Options) -> str | None:
        """Resolve ``--wd`` for this job; ``...`` = one shared per-run
        tempdir (created lazily, removed in :meth:`close`)."""
        if options.workdir != TMPDIR_WORKDIR:
            return options.workdir
        with self._lock:
            if self._tmp_workdir is None:
                self._tmp_workdir = tempfile.mkdtemp(prefix="repro-wd-")
            return self._tmp_workdir

    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        if self._cancelled.is_set():
            return self._result(job, slot, -1, "", "", time.time(), time.time(), JobState.KILLED)

        env = self._env_for(options)

        if (
            self._pool is not None
            and self._pool.alive
            and job.stdin_data is None
        ):
            # Sharded dispatch.  A pool whose every shard has died drops
            # through to the in-process Popen path — the last rung of the
            # fallback ladder keeps the run completing on this thread.
            return self._run_job_sharded(job, slot, options, timeout)
        if (
            self._use_spawn
            and job.stdin_data is None
            and self._reaper is not None
            and self._reaper.alive
        ):
            return self._run_job_spawn(job, slot, options, timeout)
        return self._run_job_popen(job, slot, options, timeout, env)

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
            job.command, timeout=timeout, cancelled=self._cancelled,
            args=job.args, seq=job.seq, slot=slot,
        )
        end = time.time()
        if reply.kind == "lost":
            # Every shard died with this job in flight: the loss is an
            # infrastructure fault, not a job outcome.  Re-run in-process
            # on the Popen rung — the same at-least-once re-execution
            # contract the cross-shard re-queue already gives.
            return self._run_job_popen(
                job, slot, options, timeout, self._run_env
            )
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
                seq=job.seq, slot=slot, path=self.spawn_path, pid=reply.pid,
                shard=reply.shard, lane=reply.shard + 1,
                lane_name=f"dispatcher {reply.shard}",
            )
        stdout = _universal_newlines(reply.stdout.decode(self._encoding))
        stderr = _universal_newlines(reply.stderr.decode(self._encoding))
        if reply.timed_out:
            state = JobState.TIMED_OUT
        elif reply.returncode == 0:
            state = JobState.SUCCEEDED
        else:
            state = JobState.FAILED
        if self._cancelled.is_set() and state is JobState.FAILED:
            state = JobState.KILLED
        return self._result(
            job, slot, reply.returncode, stdout, stderr,
            reply.start or start, reply.end or end, state,
        )

    # -- posix_spawn fast path ----------------------------------------------
    def _run_job_spawn(
        self, job: Job, slot: int, options: Options, timeout: float | None
    ) -> JobResult:
        launcher, reaper = self._launcher, self._reaper
        assert launcher is not None and reaper is not None
        start = time.time()
        try:
            pid, out_r, err_r = launcher.spawn(job.command)
        except OSError as exc:
            end = time.time()
            return self._result(
                job, slot, 127, "", f"spawn failed: {exc}", start, end, JobState.FAILED
            )
        spawned = time.time()
        if self._tracer is not None:
            self._tracer.span(
                "spawn", start, spawned, seq=job.seq, slot=slot,
                path="posix", pid=pid,
            )
        try:
            handle = reaper.register(
                pid, out_r, err_r,
                stream=getattr(job, "stream", None),
                encoding=self._encoding,
            )
        except RuntimeError:
            # The reaper closed between the alive check and registration;
            # collect this one job inline, then future jobs fall back.
            os.close(out_r)
            os.close(err_r)
            _, status = os.waitpid(pid, 0)
            end = time.time()
            return self._result(
                job, slot, os.waitstatus_to_exitcode(status), "",
                "reaper shut down mid-run", start, end, JobState.FAILED,
            )
        self._apply_nice(options, pid)

        with self._lock:
            self._procs[pid] = pid
            cancelled = self._cancelled.is_set()
        if cancelled:
            # cancel_all ran between the entry check and registration: its
            # snapshot missed this process, so deliver the kill ourselves.
            self._kill_group(pid)
        state = JobState.SUCCEEDED
        try:
            if not handle.wait(timeout):
                self._kill_group(pid)
                if self._tracer is not None:
                    self._tracer.instant(
                        "proc_timeout_kill", seq=job.seq, slot=slot,
                        pid=pid, timeout=timeout,
                    )
                handle.wait()
                state = JobState.TIMED_OUT
        finally:
            with self._lock:
                self._procs.pop(pid, None)
        reap_start = time.time()
        stdout = _universal_newlines(bytes(handle.stdout_buf).decode(self._encoding))
        stderr = _universal_newlines(bytes(handle.stderr_buf).decode(self._encoding))
        returncode = handle.returncode if handle.returncode is not None else -1
        if state is not JobState.TIMED_OUT and returncode != 0:
            state = JobState.FAILED
        end = time.time()
        if self._tracer is not None:
            self._tracer.span(
                "reap", reap_start, end, seq=job.seq, slot=slot, path="posix"
            )
        if self._cancelled.is_set() and state is JobState.FAILED:
            state = JobState.KILLED
        return self._result(job, slot, returncode, stdout, stderr, start, end, state)

    # -- Popen reference path ------------------------------------------------
    def _run_job_popen(
        self,
        job: Job,
        slot: int,
        options: Options,
        timeout: float | None,
        env: dict[str, str] | None,
    ) -> JobResult:
        cwd = self._cwd_for(options)

        start = time.time()
        try:
            # start_new_session (setsid in the child, after fork) replaces
            # the old preexec_fn path: preexec_fn runs arbitrary Python
            # between fork and exec, which is both slow (it forces
            # single-threaded fork bookkeeping in CPython) and unsafe under
            # a threaded dispatcher.  The child is its own session (and
            # thus process-group) leader, so kill-by-group still covers the
            # whole job tree.
            proc = subprocess.Popen(
                [self.shell, "-c", job.command],
                stdin=subprocess.PIPE if job.stdin_data is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                cwd=cwd,
                env=env,
                text=True,
                start_new_session=(os.name == "posix"),
            )
        except OSError as exc:
            end = time.time()
            return self._result(
                job, slot, 127, "", f"spawn failed: {exc}", start, end, JobState.FAILED
            )
        spawned = time.time()
        if self._tracer is not None:
            self._tracer.span(
                "spawn", start, spawned, seq=job.seq, slot=slot,
                path="popen", pid=proc.pid,
            )
        self._apply_nice(options, proc.pid)

        with self._lock:
            self._procs[proc.pid] = proc
            cancelled = self._cancelled.is_set()
        if cancelled:
            # cancel_all ran between the entry check and registration: its
            # snapshot missed this process, so deliver the kill ourselves.
            self._kill_group(proc.pid)
        try:
            try:
                reap_start = time.time()
                stdout, stderr = proc.communicate(
                    input=job.stdin_data, timeout=timeout
                )
                state = JobState.SUCCEEDED if proc.returncode == 0 else JobState.FAILED
            except subprocess.TimeoutExpired:
                self._kill_group(proc.pid)
                if self._tracer is not None:
                    self._tracer.instant(
                        "proc_timeout_kill", seq=job.seq, slot=slot,
                        pid=proc.pid, timeout=timeout,
                    )
                stdout, stderr = proc.communicate()
                state = JobState.TIMED_OUT
        finally:
            with self._lock:
                self._procs.pop(proc.pid, None)
        end = time.time()
        if self._tracer is not None:
            # On this path collection is the blocking communicate(), so
            # the span includes the job's own runtime (documented).
            self._tracer.span(
                "reap", reap_start, end, seq=job.seq, slot=slot, path="popen"
            )
        if self._cancelled.is_set() and state is JobState.FAILED:
            state = JobState.KILLED
        return self._result(job, slot, proc.returncode, stdout, stderr, start, end, state)

    # -- shared helpers ------------------------------------------------------
    def _apply_nice(self, options: Options, pid: int) -> None:
        if options.nice is not None and hasattr(os, "setpriority"):
            # Applied from the parent right after spawn (no preexec_fn);
            # the first few ms of the job may run un-niced, an accepted
            # trade for keeping fork+exec on the fast path.  PRIO_PGRP
            # (the child is its own group leader) covers helpers the
            # shell already forked, which PRIO_PROCESS would race.
            try:
                os.setpriority(os.PRIO_PGRP, pid, options.nice)
            except OSError:
                pass

    def cancel_all(self) -> None:
        self._cancelled.set()
        with self._lock:
            pids = list(self._procs)
        if self._tracer is not None:
            self._tracer.instant("cancel_all", n_procs=len(pids))
        for pid in pids:
            self._kill_group(pid)
        if self._pool is not None:
            # Cancellation fan-out: each shard SIGTERMs every job group it
            # owns (jobs mid-dispatch are covered by run_job's post-send
            # cancelled check).
            self._pool.kill_all()

    @staticmethod
    def _kill_group(pid: int) -> None:
        try:
            if os.name == "posix":
                os.killpg(pid, signal.SIGTERM)
            else:  # pragma: no cover - non-posix fallback
                os.kill(pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass

    def close(self) -> None:
        with self._lock:
            tmp, self._tmp_workdir = self._tmp_workdir, None
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        if self._reaper is not None:
            self._reaper.close()
            self._reaper = None
        if self._launcher is not None:
            self._launcher.close()
            self._launcher = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._use_spawn = False

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
