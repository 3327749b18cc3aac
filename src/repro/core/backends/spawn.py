"""The one subprocess runner: spawn → collect → timeout → kill.

Every layer that runs a shell command — the local backend, the shard
workers, the remote transport and its channels — goes through this
module; nothing else in the package calls ``subprocess.Popen``,
``os.posix_spawn``, ``os.killpg`` or ``os.setpriority``
(``tests/test_spawn_sites.py`` enforces it).

``subprocess.Popen(start_new_session=True)`` forces a full ``fork()`` in
CPython (a session-setting ``preexec`` step disables the vfork/posix_spawn
fast paths) and builds a Python-level ``Popen`` object per job.
:class:`SpawnLauncher` replaces it with one ``posix_spawn(3)`` call per
job using ``POSIX_SPAWN_SETSID`` for the kill-by-group contract and
argv/env vectors pre-built once per run — the same amortization GNU
Parallel gets from keeping its command assembly in a single long-lived
perl process.  Output collection is the
:class:`~repro.core.backends.reaper.PipeReaper`'s job;
:func:`run_command` puts the two together (or falls back to Popen) and
adds the timeout, kill and ``--nice`` handling every caller shares.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.backends.reaper import PipeReaper

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
    "wrap_chdir",
]

#: Cached availability probe result (None = not probed yet).
_supported: "bool | None" = None
_probe_lock = threading.Lock()

#: stderr of a job whose reaper closed after it was spawned.
REAPER_GONE = b"reaper shut down mid-run"


def spawn_supported() -> bool:
    """True when this platform can run the posix_spawn fast path.

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


def wrap_chdir(workdir: str, command: str) -> str:
    """Prefix ``command`` so the shell enters ``workdir`` before running.

    ``posix_spawn`` has no working-directory attribute; remote channels
    (whose sandbox workdir is transport-managed) reproduce ``cwd=`` by
    making the already-spawned shell do the chdir.  Exit 255 on a missing
    directory mirrors the transport-level connect failure a real ssh
    channel would report.
    """
    return f"cd {shlex.quote(workdir)} || exit 255; {command}"


def merged_env(extra: "dict[str, str] | None") -> "dict[str, str] | None":
    """``os.environ`` overlaid with ``extra``; None (inherit) when empty."""
    if not extra:
        return None
    env = dict(os.environ)
    env.update(extra)
    return env


def decode_output(data: bytes, encoding: str) -> str:
    """Captured bytes → text with ``Popen(text=True)`` parity: strict
    errors and universal newlines."""
    text = data.decode(encoding)
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

    One instance serves one run (or one remote channel): the argv prefix,
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
    ``launcher`` (and no    posix_spawn  argv/env pre-built per run; output
    stdin, no cwd)          + reaper     multiplexed by ``reaper``;
                                         ``stream`` gets stdout line by line
    ``stdin`` given         Popen        per-job stdin needs
                                         ``communicate()``'s write-side
                                         backpressure handling
    ``cwd`` given           Popen        ``posix_spawn`` has no
                                         working-directory attribute
    no ``launcher``         Popen        ``--spawn-path popen``, or
                                         ``spawn_supported()`` is False
    ======================  ===========  ==================================

    The Popen leg runs in bytes mode with ``shell``, ``env`` (None =
    inherit) and ``stdin`` encoded with ``encoding``.  ``reaper`` must
    come from a :class:`LiveReaper`; if it closes between that pick and
    registration, the job is collected by :func:`wait_inline` and
    reports :data:`REAPER_GONE` on stderr.
    """
    start = time.time()
    if launcher is None or stdin is not None or cwd is not None:
        proc = subprocess.Popen(
            [shell, "-c", command],
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=cwd,
            env=env,
            # setsid in the child: the job tree is one killable group.
            start_new_session=(os.name == "posix"),
        )
        pid = proc.pid
    else:
        proc = None
        pid, out_r, err_r = launcher.spawn(command)
    spawned = time.time()
    set_nice(pid, nice)
    table.add(pid)
    timed_out = False
    try:
        if proc is not None:
            data = stdin.encode(encoding) if stdin is not None else None
            try:
                out, err = proc.communicate(input=data, timeout=timeout)
            except subprocess.TimeoutExpired:
                kill_group(pid)
                out, err = proc.communicate()
                timed_out = True
            returncode = proc.returncode
        else:
            assert reaper is not None, "the posix_spawn leg needs a reaper"
            try:
                handle = reaper.register(
                    pid, out_r, err_r, stream=stream, encoding=encoding
                )
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
