"""The one subprocess runner: spawn → collect → timeout → kill.

Every layer that runs a shell command — the local backend, the shard
workers, the remote transport — goes through this module; nothing else
in the package calls ``subprocess.Popen``,
``os.posix_spawn``, ``os.killpg`` or ``os.setpriority``
(``tests/test_spawn_sites.py`` enforces it).

Two ways to start a job, measured on CPython 3.11:

``subprocess.Popen(start_new_session=True)``
    Takes CPython's vfork path (its spawn cost stays flat as the
    parent's resident memory grows) and releases the GIL while the
    child execs, so concurrent ``-j`` slot threads spawn side by side.
    The job's stdout and stderr are two pipes handed to Popen as raw
    fds, so it wraps no file objects around them, and the calling
    thread reads both with one ``poll`` loop (:func:`_collect`), which
    also hands stdout on at each newline for ``--linebuffer``.  A job
    with per-job stdin keeps ``communicate()``.  The default for
    in-process jobs, and the leg for ``LocalTransport``.

:class:`SpawnLauncher`
    One ``os.posix_spawn`` call per job with ``POSIX_SPAWN_SETSID`` for
    the kill-by-group contract and argv/env vectors pre-built once per
    run, its output collected by the shared
    :class:`~repro.core.backends.reaper.PipeReaper`.  ``os.posix_spawn``
    holds the GIL for its whole vfork→exec: a spinning Python thread
    stalls once per call, for the call's length, so slot threads
    spawning this way queue behind each other.  It has two callers: the
    dispatcher shard workers, which spawn from one thread each, and an
    explicit ``--spawn-path posix``.

:func:`run_command` picks between the two from its inputs and adds the
timeout, kill and ``--nice`` handling every caller shares.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.backends.reaper import _CHUNK, PipeReaper

__all__ = [
    "REAPER_GONE",
    "Completed",
    "LiveReaper",
    "ProcessTable",
    "SpawnLauncher",
    "decode_output",
    "kill_group",
    "merged_env",
    "run_command",
    "set_nice",
    "spawn_supported",
    "wait_inline",
]

#: Cached availability probe result (None = not probed yet).
_supported: "bool | None" = None
_probe_lock = threading.Lock()

#: stderr of a job whose reaper closed after it was spawned.
REAPER_GONE = b"reaper shut down mid-run"


def spawn_supported() -> bool:
    """True when this platform can run the posix_spawn leg.

    Requires POSIX, ``os.posix_spawn`` and libc support for
    ``POSIX_SPAWN_SETSID`` (glibc >= 2.26; probed once with a real spawn
    because libc only reports the missing attribute at call time).
    """
    global _supported
    if _supported is not None:
        return _supported
    with _probe_lock:
        if _supported is not None:
            return _supported
        if os.name != "posix" or not hasattr(os, "posix_spawn"):
            _supported = False
            return False
        try:
            launcher = SpawnLauncher(env={})
            try:
                wait_inline(*launcher.spawn("true"))
            finally:
                launcher.close()
            _supported = True
        except (OSError, NotImplementedError, TypeError, AttributeError):
            # TypeError: Python without the setsid keyword; Not/OSError:
            # libc without POSIX_SPAWN_SETSID or no /bin/sh.
            _supported = False
    return _supported


def merged_env(extra: "dict[str, str] | None") -> "dict[str, str] | None":
    """``os.environ`` overlaid with ``extra``; None (inherit) when empty."""
    if not extra:
        return None
    env = dict(os.environ)
    env.update(extra)
    return env


def decode_output(data: bytes, encoding: str, errors: str = "strict") -> str:
    """Captured bytes → text with ``Popen(text=True)`` parity: strict
    errors (by default) and universal newlines."""
    text = data.decode(encoding, errors)
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def kill_group(pid: int) -> None:
    """SIGTERM the job's whole process group (the job is its leader)."""
    try:
        if os.name == "posix":
            os.killpg(pid, signal.SIGTERM)
        else:  # pragma: no cover - non-posix fallback
            os.kill(pid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        pass


def set_nice(pid: int, nice: "int | None") -> None:
    """Apply ``--nice`` to a just-spawned job's process group.

    Applied from the parent right after spawn (no preexec_fn); the first
    few ms of the job may run un-niced, an accepted trade for keeping
    fork+exec on the fast path.  PRIO_PGRP (the child is its own group
    leader) covers helpers the shell already forked, which PRIO_PROCESS
    would race.
    """
    if nice is not None and hasattr(os, "setpriority"):
        try:
            os.setpriority(os.PRIO_PGRP, pid, nice)
        except OSError:
            pass


def wait_inline(pid: int, out_r: int, err_r: int) -> int:
    """Collect a job whose reaper closed after the job was spawned.

    The process has already started, so it is waited for here rather than
    re-run (its side effects must not happen twice); its pipes are closed
    unread.  Returns the exit status in ``Popen.returncode`` convention.
    """
    os.close(out_r)
    os.close(err_r)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


class ProcessTable:
    """In-flight job pids, with the cancel-vs-spawn race closed.

    ``kill_all`` sets :attr:`cancelled` and signals every registered
    group; a job registered after that snapshot is killed by :meth:`add`
    itself, so no job started concurrently with a cancel survives it.
    """

    __slots__ = ("_pids", "_lock", "cancelled")

    def __init__(self) -> None:
        self._pids: set[int] = set()
        self._lock = threading.Lock()
        self.cancelled = threading.Event()

    def add(self, pid: int) -> None:
        with self._lock:
            self._pids.add(pid)
            raced = self.cancelled.is_set()
        if raced:
            kill_group(pid)

    def discard(self, pid: int) -> None:
        with self._lock:
            self._pids.discard(pid)

    def kill_all(self) -> int:
        """Cancel: SIGTERM every in-flight group; returns how many."""
        self.cancelled.set()
        with self._lock:
            pids = list(self._pids)
        for pid in pids:
            kill_group(pid)
        return len(pids)


class LiveReaper:
    """The one dead-reaper rule: a closed or crashed reaper is replaced.

    :meth:`get` hands out the current :class:`PipeReaper` while it is
    alive and builds a fresh one (with the same constructor options) for
    the next job once it is not.  Jobs that were registered on the dead
    reaper were released by its teardown (exit 127); a job caught between
    :meth:`get` and ``register`` is collected by :func:`wait_inline`.
    """

    def __init__(self, **options) -> None:
        self._options = options
        self._reaper: Optional[PipeReaper] = None
        self._lock = threading.Lock()

    def get(self) -> PipeReaper:
        with self._lock:
            reaper = self._reaper
            if reaper is None or reaper.closed or not reaper.alive:
                reaper = self._reaper = PipeReaper(**self._options)
            return reaper

    def close(self) -> None:
        with self._lock:
            reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.close()


class SpawnLauncher:
    """Spawns ``shell -c command`` jobs with pre-built argv/env vectors.

    One instance serves one run (or one shard worker): the argv prefix,
    the environment and the shared ``/dev/null`` stdin fd are all
    computed once, so the per-job work is two ``pipe()`` calls and one
    ``posix_spawn``.  Thread-safe — worker threads spawn concurrently.
    """

    __slots__ = ("shell", "env", "_argv_prefix", "_devnull", "_lock")

    def __init__(self, shell: str = "/bin/sh", env: "dict[str, str] | None" = None):
        self.shell = shell
        #: Environment vector passed verbatim to every spawn.  None =
        #: inherit, snapshotted here once: handed the live ``os.environ``
        #: mapping, CPython would re-walk and re-encode it on every spawn.
        self.env = dict(os.environ) if env is None else env
        self._argv_prefix = [shell, "-c"]
        self._devnull = os.open(os.devnull, os.O_RDONLY)
        self._lock = threading.Lock()

    def spawn(self, command: str) -> "tuple[int, int, int]":
        """Start one job; returns ``(pid, stdout_read_fd, stderr_read_fd)``.

        The child is its own session (and process-group) leader, stdin is
        ``/dev/null``, stdout/stderr are fresh pipes whose read ends the
        caller owns (hand them to the reaper).  Raises ``OSError`` when
        the spawn itself fails.
        """
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            # Python pipe fds are CLOEXEC; the dup2 file actions produce
            # the child's non-CLOEXEC stdio copies, and exec() closes the
            # originals — no explicit CLOSE actions needed, and no fd
            # leak into jobs spawned concurrently by other workers.
            pid = os.posix_spawn(
                self.shell,
                self._argv_prefix + [command],
                self.env,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, self._devnull, 0),
                    (os.POSIX_SPAWN_DUP2, out_w, 1),
                    (os.POSIX_SPAWN_DUP2, err_w, 2),
                ],
                setsid=True,
            )
        except BaseException:
            os.close(out_r)
            os.close(err_r)
            os.close(out_w)
            os.close(err_w)
            raise
        os.close(out_w)
        os.close(err_w)
        return pid, out_r, err_r

    def close(self) -> None:
        """Release the shared stdin fd (idempotent)."""
        with self._lock:
            if self._devnull >= 0:
                try:
                    os.close(self._devnull)
                except OSError:
                    pass
                self._devnull = -1


@dataclass
class Completed:
    """One finished command, in bytes; callers decode with :func:`decode_output`."""

    pid: int
    returncode: int
    stdout: bytes
    stderr: bytes
    start: float      #: before the spawn
    spawned: float    #: the spawn call returned
    end: float        #: output collected and the process reaped
    timed_out: bool = False


#: Read-only ``/dev/null`` shared as stdin by every :func:`_popen_pipes`
#: job, opened once per process: ``subprocess.DEVNULL`` would open and
#: close it for each job.
_devnull: "int | None" = None


def _popen_pipes(
    argv: "list[str]", cwd: "str | None", env: "dict[str, str] | None"
) -> "tuple[subprocess.Popen, int, int]":
    """Start one job with Popen; returns ``(proc, stdout_read_fd,
    stderr_read_fd)``.

    stdin is the shared ``/dev/null``; stdout and stderr are two fresh
    pipes handed to Popen as raw fds, so it wraps no file objects around
    them, and the caller owns the read ends.  Raises ``OSError`` when
    the spawn fails, with all four pipe ends closed.
    """
    global _devnull
    if _devnull is None:
        with _probe_lock:
            if _devnull is None:
                _devnull = os.open(os.devnull, os.O_RDONLY)
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    try:
        proc = subprocess.Popen(
            argv,
            stdin=_devnull,
            stdout=out_w,
            stderr=err_w,
            cwd=cwd,
            env=env,
            # setsid in the child: the job tree is one killable group.
            start_new_session=(os.name == "posix"),
        )
    except BaseException:
        os.close(out_r)
        os.close(err_r)
        raise
    finally:
        os.close(out_w)
        os.close(err_w)
    return proc, out_r, err_r


#: Longest wait one ``poll`` call takes (a C int of ms); a longer timeout
#: is waited out over several calls.
_POLL_MAX_MS = 2**31 - 1


def _collect(
    proc: subprocess.Popen,
    out_r: int,
    err_r: int,
    timeout: "float | None",
    stream: "Callable[[str], None] | None" = None,
    encoding: str = "utf-8",
) -> "tuple[bytes, bytes, bool]":
    """Read the job's stdout and stderr pipes to EOF, then reap it;
    returns ``(stdout, stderr, timed_out)`` and closes both read ends.

    One ``poll`` loop on the two fds, in the calling thread.  A pipe that
    reports hang-up without data is at EOF and costs no read, so a job
    that writes nothing is collected with one ``poll`` and one
    ``waitpid``.  At ``timeout`` the group is killed and collection
    drains on; if ``stream`` raises, the job is killed and still reaped
    before the error propagates.

    With ``stream``, stdout is also handed on at each ``\\n``.  Chunks
    end at ``\\n``, so neither a UTF-8 sequence nor a ``\\r\\n`` pair is
    ever split; the unterminated tail follows at EOF.  Errors are
    replaced in the stream, while the returned bytes stay raw: strict
    decoding happens at result construction.
    """
    deadline = None if timeout is None else time.monotonic() + timeout

    def left() -> "float | None":
        return None if deadline is None else max(0.0, deadline - time.monotonic())

    out, err = bytearray(), bytearray()
    bufs = {out_r: out, err_r: err}
    poller = select.poll()
    poller.register(out_r, select.POLLIN)
    poller.register(err_r, select.POLLIN)
    live, sent, timed_out = 2, 0, False
    try:
        while live:
            if left() == 0:
                kill_group(proc.pid)
                timed_out, deadline = True, None
            wait = left()
            for fd, event in poller.poll(None if wait is None
                                         else min(wait * 1000, _POLL_MAX_MS)):
                chunk = os.read(fd, _CHUNK) if event & select.POLLIN else b""
                if not chunk:
                    poller.unregister(fd)
                    live -= 1
                    continue
                bufs[fd] += chunk
                cut = chunk.rfind(b"\n") + 1 if stream is not None and fd == out_r else 0
                if cut:
                    end = len(out) - len(chunk) + cut
                    stream(decode_output(bytes(out[sent:end]), encoding, "replace"))
                    sent = end
        if stream is not None and sent < len(out):
            stream(decode_output(bytes(out[sent:]), encoding, "replace"))
        try:  # both pipes closed; the deadline still covers the exit
            proc.wait(left())
        except subprocess.TimeoutExpired:
            timed_out = True
    finally:
        if proc.returncode is None:  # timed out, or ``stream`` raised
            kill_group(proc.pid)
        os.close(out_r)
        os.close(err_r)
        proc.wait()
    return bytes(out), bytes(err), timed_out


def run_command(
    command: str,
    *,
    table: ProcessTable,
    launcher: "SpawnLauncher | None" = None,
    reaper: "PipeReaper | None" = None,
    shell: str = "/bin/sh",
    env: "dict[str, str] | None" = None,
    cwd: "str | None" = None,
    stdin: "str | None" = None,
    timeout: "float | None" = None,
    nice: "int | None" = None,
    stream: "Callable[[str], None] | None" = None,
    encoding: str = "utf-8",
) -> Completed:
    """Run ``shell -c command`` to completion; raises ``OSError`` if it
    cannot be spawned.

    The job is its own session and process-group leader; it is registered
    in ``table`` for its whole life (so a cancel kills it), gets ``nice``
    applied to its group, and on ``timeout`` its group is SIGTERMed and
    collection continues until the pipes close (``timed_out=True``).

    The leg is picked from the inputs alone:

    ======================  ===========  ==================================
    inputs                  leg          why
    ======================  ===========  ==================================
    ``stdin``               Popen +      ``communicate()`` feeds per-job
                            communicate  stdin (``--pipe``)
    ``launcher`` (and no    posix_spawn  argv/env pre-built per run; output
    cwd or stream)          + reaper     multiplexed by ``reaper``
                                         (``--spawn-path posix``)
    anything else           Popen +      the in-process default: Popen
                            poll loop    releases the GIL across
                                         vfork→exec; :func:`_collect`
                                         reads the two raw pipe fds in
                                         this thread, handing stdout to
                                         ``stream`` (``--linebuffer``);
                                         ``posix_spawn`` has no cwd
    ======================  ===========  ==================================

    On every leg a job is open until every writer has closed its pipes,
    so a backgrounded grandchild still holding stdout keeps it running.
    The Popen leg runs in bytes mode with ``shell``, ``env`` (None =
    inherit) and ``stdin`` encoded with ``encoding``.  ``reaper`` must
    come from a :class:`LiveReaper`; if it closes between that pick and
    registration, the job is collected by :func:`wait_inline` and
    reports :data:`REAPER_GONE` on stderr.
    """
    start = time.time()
    argv = [shell, "-c", command]
    proc = None
    if stdin is not None:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=cwd,
            env=env,
            # setsid in the child: the job tree is one killable group.
            start_new_session=(os.name == "posix"),
        )
        pid = proc.pid
    elif launcher is None or cwd is not None or stream is not None:
        proc, out_r, err_r = _popen_pipes(argv, cwd, env)
        pid = proc.pid
    else:
        pid, out_r, err_r = launcher.spawn(command)
    spawned = time.time()
    set_nice(pid, nice)
    table.add(pid)
    timed_out = False
    try:
        if stdin is not None:
            try:
                out, err = proc.communicate(stdin.encode(encoding), timeout)
            except subprocess.TimeoutExpired:
                kill_group(pid)
                out, err = proc.communicate()
                timed_out = True
            returncode = proc.returncode
        elif proc is not None:
            out, err, timed_out = _collect(proc, out_r, err_r, timeout, stream, encoding)
            returncode = proc.returncode
        else:
            assert reaper is not None, "the posix_spawn leg needs a reaper"
            try:
                handle = reaper.register(pid, out_r, err_r)
            except RuntimeError:
                return Completed(pid, wait_inline(pid, out_r, err_r), b"",
                                 REAPER_GONE, start, spawned, time.time())
            if not handle.wait(timeout):
                kill_group(pid)
                handle.wait()
                timed_out = True
            out, err = bytes(handle.stdout_buf), bytes(handle.stderr_buf)
            returncode = handle.returncode if handle.returncode is not None else -1
    finally:
        table.discard(pid)
    return Completed(pid, returncode, out, err, start, spawned, time.time(),
                     timed_out)
