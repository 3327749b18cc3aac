"""The one subprocess runner: spawn → collect → timeout → kill.

Every layer that runs a shell command — the local backend, the shard
workers, the remote transport — goes through this module; nothing else
in the package calls ``fork_exec``, ``os.posix_spawn[p]``,
``os.killpg`` or ``os.setpriority``, and nothing at all calls
``subprocess.Popen`` (``tests/test_spawn_sites.py`` enforces both).

Two ways to start a job, measured on CPython 3.11:

``_posixsubprocess.fork_exec`` (:func:`_launch`)
    The primitive ``subprocess.Popen`` wraps, called with the arguments
    Popen passes it for ``start_new_session=True`` but without building
    a Popen object.  It takes CPython's vfork path (its spawn cost stays
    flat as the parent's resident memory grows) and releases the GIL
    while the child execs, so concurrent ``-j`` slot threads spawn side
    by side.  The job's stdout and stderr are two pipes, plus a stdin
    pipe for per-job stdin, and the calling thread serves all of them
    with one ``poll`` loop (:func:`_collect`), which also hands stdout on
    at each newline for ``--linebuffer``, then reaps the job with
    ``os.waitpid``.  The default for in-process jobs, and the leg for
    ``LocalTransport``; ``--spawn-path popen`` and the ``popen`` span
    label still name it.

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

Both legs exec a *plain* command (:func:`_plain_argv`: no quoting,
expansion, redirection or builtin) directly, with the argv ``sh`` would
have passed and the environment the shell itself reported once for
the run (:class:`_ExecEnv`), so the job skips the shell's own fork and
exec; anything else, and a direct exec that fails, runs as ``shell -c
command``.
"""

from __future__ import annotations

import fcntl
import os
import select
import shutil
import signal
import sys
import threading
import time
from _posixsubprocess import fork_exec
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
    """``os.environ`` overlaid with ``extra``; None (``os.environ``
    itself) when empty."""
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
    """Spawns jobs with pre-built argv/env vectors: a plain command
    through ``posix_spawnp``, anything else as ``shell -c command``.

    One instance serves one run (or one shard worker): the argv prefix,
    the environment and the shared ``/dev/null`` stdin fd are all
    computed once, so the per-job work is two ``pipe()`` calls and one
    spawn.  Thread-safe — worker threads spawn concurrently.
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
        return self.start(command)[:3]

    def start(self, command: str) -> "tuple[int, int, int, bool]":
        """:meth:`spawn`, plus whether the job was exec'd without the shell."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        # Python pipe fds are CLOEXEC; the dup2 file actions produce the
        # child's non-CLOEXEC stdio copies, and exec() closes the
        # originals — no explicit CLOSE actions needed, and no fd leak
        # into jobs spawned concurrently by other workers.
        actions = [
            (os.POSIX_SPAWN_DUP2, self._devnull, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err_w, 2),
        ]
        try:
            pid = None
            argv = _plain_argv(command)
            if argv is not None:
                ctx = _exec_env(self.env, None, self.shell)
                # posix_spawnp searches this process's PATH, so only a
                # run whose PATH is that one may take it.
                if ctx.direct_map is not None and ctx.path == os.environ.get("PATH"):
                    try:
                        pid = os.posix_spawnp(argv[0], argv, ctx.direct_map,
                                              file_actions=actions, setsid=True)
                    except OSError:
                        pass  # it never ran; the shell reports why
            direct = pid is not None
            if pid is None:
                pid = os.posix_spawn(self.shell, self._argv_prefix + [command],
                                     self.env, file_actions=actions, setsid=True)
        except BaseException:
            os.close(out_r)
            os.close(err_r)
            os.close(out_w)
            os.close(err_w)
            raise
        os.close(out_w)
        os.close(err_w)
        return pid, out_r, err_r, direct

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
    direct: bool = False  #: exec'd without the shell (:func:`_plain_argv`)


#: Read-only ``/dev/null`` shared as stdin by every :func:`_launch` job
#: without per-job stdin, opened once per process.
_devnull: "int | None" = None

#: ``fork_exec``'s trailing arguments as ``Popen._execute_child`` passes
#: them with no user, group, umask or preexec_fn.  CPython 3.11–3.13 take
#: ``process_group, gid, gids, uid, umask, preexec_fn, allow_vfork``;
#: 3.10 has neither ``process_group`` nor ``allow_vfork`` (it picks
#: vfork itself).
if sys.version_info >= (3, 11):
    _FORK_EXEC_TAIL: tuple = (-1, None, None, None, -1, None, True)
else:  # pragma: no cover - exercised by the 3.10 CI job
    _FORK_EXEC_TAIL = (None, None, None, -1, None)


def _env_list(env: dict) -> "list[bytes]":
    """``env`` (``str`` or ``bytes`` items) as the ``KEY=value`` vector
    ``fork_exec`` takes; a key holding ``=`` raises ``ValueError``, as in
    Popen."""
    vector = []
    for key, value in env.items():
        key = os.fsencode(key)
        if b"=" in key:
            raise ValueError("illegal environment variable name")
        vector.append(key + b"=" + os.fsencode(value))
    return vector


#: A plain command holds only these characters: the ones ``shlex.quote``
#: leaves bare, plus spaces and tabs between words.  Nothing in it can
#: quote, expand, glob, redirect, separate, comment or continue a line.
_PLAIN = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
          "0123456789_./,:+@%=- \t")

#: First words the shell runs itself: dash's and bash's reserved words
#: and builtins that :data:`_PLAIN` lets through.  ``echo``, ``printf``,
#: ``test`` or ``kill`` as programs differ from the builtins; ``cd``,
#: ``exec`` or ``time`` are no program.
_SHELL_WORDS = frozenset("""
    . : alias bg bind break builtin caller case cd chdir command compgen
    complete compopt continue coproc declare dirs disown do done echo elif
    else enable esac eval exec exit export false fc fg fi for function
    getopts hash help history if in jobs kill let local logout mapfile
    popd printf pushd pwd read readarray readonly return select set shift
    shopt source suspend test then time times trap true type typeset
    ulimit umask unalias unset until wait while
""".split())


def _plain_argv(command: str) -> "list[str] | None":
    """The argv ``sh -c command`` would exec, when that is all it would
    do; None when the command needs the shell.

    Plain means: only :data:`_PLAIN` characters, at least one word, no
    ``=`` in the first word (an assignment) and a first word that is no
    reserved word or builtin (:data:`_SHELL_WORDS`).  The shell would
    split such a command at blanks and expand nothing, so its words are
    the argv.
    """
    if command.strip(_PLAIN):  # what is left is a character the shell reads
        return None
    words = command.split()
    if not words or "=" in words[0] or words[0] in _SHELL_WORDS:
        return None
    return words


#: Names bash reads at startup to change what it runs (``BASH_ENV``,
#: ``SHELLOPTS``, exported functions as ``BASH_FUNC_name%%``, ...) or
#: sets to a value of its own; with one inherited, the job keeps the shell
#: (no probe sees a function that shadows a program).
_BASH_OWN = ("BASH", "SHELLOPTS", "POSIXLY_CORRECT", "EPOCHSECONDS",
             "EPOCHREALTIME")

#: The script whose output is the environment the shell passes a program
#: it execs (``{}`` is ``cat``'s absolute path), and how long it may take.
_PROBE = "exec {} /proc/self/environ"
_PROBE_TIMEOUT = 2.0


def _shell_program(shell: str, dirs: "list[bytes]") -> str:
    """The base name of the file ``shell`` runs, symlinks resolved (so a
    ``/bin/sh`` that links to bash is ``bash``); a bare name is looked
    up in ``dirs``.  ``""`` when no such program is found."""
    found = shutil.which(shell, path=os.pathsep.join(map(os.fsdecode, dirs)))
    return os.path.basename(os.path.realpath(found)) if found else ""


class _ExecEnv:
    """What a job's exec needs from one ``(env, cwd, shell)``, built once.

    ``shell_env`` is ``env`` as ``fork_exec``'s vector, None (inherit the
    process environment) when env is None.  ``direct_env``/``direct_map``
    hold the environment the shell gives a program it execs, as the shell
    reports it: :data:`_PROBE`, run in the job's directory with ``env``
    (``os.environ``, as in the posix leg's snapshot, when None).  They
    are None when the job keeps the shell: it is neither dash nor bash,
    bash would act on an inherited name (:data:`_BASH_OWN`), ``PATH`` is
    unset, or the probe fails, writes to stderr or times out.
    """

    __slots__ = ("source", "snapshot", "shell_env", "path", "dirs",
                 "direct_map", "direct_env")

    def __init__(self, env: "dict[str, str] | None", source: dict,
                 cwd: "str | None", shell: str) -> None:
        self.source, self.snapshot = source, dict(source)
        self.shell_env = None if env is None else _env_list(env)
        self.dirs = [os.fsencode(d) for d in os.get_exec_path(env)]
        mapping = os.environ if env is None else env
        self.path = mapping.get("PATH")
        self.direct_map: "dict[bytes, bytes] | None" = None
        self.direct_env: "list[bytes] | None" = None
        program = _shell_program(shell, self.dirs)
        cat = shutil.which("cat", path=os.defpath)
        if (program not in ("dash", "bash") or self.path is None or cat is None
                or program == "bash" and any(k.startswith(_BASH_OWN) for k in mapping)):
            return
        try:
            pid, out_r, err_r, _ = _launch(
                [shell, "-c", _PROBE.format(cat)], self.executables(shell), cwd,
                _env_list(mapping) if env is None else self.shell_env, False)
        except OSError:
            return  # the shell leg reports the failed chdir
        returncode, out, err, timed_out = _collect(pid, out_r, err_r, _PROBE_TIMEOUT)
        if returncode or err or timed_out:
            return
        self.direct_env = out.split(b"\0")[:-1]
        self.direct_map = dict(entry.split(b"=", 1) for entry in self.direct_env)

    def executables(self, name: str) -> tuple:
        """The paths ``fork_exec`` tries for ``name``, in PATH order."""
        exe = os.fsencode(name)
        if os.path.dirname(exe):
            return (exe,)
        return tuple(os.path.join(d, exe) for d in self.dirs)


#: ``_ExecEnv`` by (id of the env mapping, cwd, this process's cwd,
#: shell).  A hit is used only while its mapping is the same object with
#: the same contents, so an env changed in place, or ``os.environ``
#: changed between runs, is rebuilt.  A run re-uses one env and shell and
#: a few cwds.
_exec_envs: "dict[tuple, _ExecEnv]" = {}
_EXEC_ENVS_MAX = 64
if hasattr(os, "register_at_fork"):  # a forked worker has its own PPID
    os.register_at_fork(after_in_child=_exec_envs.clear)


def _exec_env(env: "dict[str, str] | None", cwd: "str | None",
              shell: str) -> _ExecEnv:
    """The cached :class:`_ExecEnv` for ``env`` (None = ``os.environ``),
    ``cwd`` and ``shell``; raises ``ValueError`` for an ``=`` in an
    ``env`` key."""
    # os.environ's encoded dict: compared without decoding every entry.
    source = os.environ._data if env is None else env  # type: ignore[attr-defined]
    try:
        here: "str | None" = os.getcwd()
    except OSError:  # this process's directory is gone
        here = None
    key = (id(source), cwd, here, shell)
    entry = _exec_envs.get(key)
    if entry is None or entry.source is not source or entry.snapshot != source:
        entry = _ExecEnv(env, source, cwd, shell)
        if len(_exec_envs) >= _EXEC_ENVS_MAX:
            _exec_envs.clear()
        _exec_envs[key] = entry
    return entry


def _exec_error(report: bytes, shell: str, cwd: "str | None") -> OSError:
    """The child's exec-error report → the ``OSError`` Popen raises.

    The report reads ``OSError:<hex errno>:<message>``; a message starting
    ``noexec`` (3.13 writes ``noexec:chdir``) means the child failed
    before exec, in ``chdir(cwd)``, so the error names ``cwd`` instead of
    the shell.
    """
    _, hex_errno, message = report.split(b":", 2)
    errno_num = int(hex_errno, 16)
    filename = cwd if message.startswith(b"noexec") else shell
    return OSError(errno_num, os.strerror(errno_num), filename)


def _launch(
    argv: "list[str]", executables: tuple, cwd: "str | None",
    env: "list[bytes] | None", stdin: bool,
) -> "tuple[int, int, int, int]":
    """Start one job; returns ``(pid, stdout_read_fd, stderr_read_fd,
    stdin_write_fd)``, the last -1 unless ``stdin``.

    ``_posixsubprocess.fork_exec`` with what ``Popen._execute_child``
    passes it for ``start_new_session=True``: ``close_fds``, setsid,
    ``restore_signals`` and vfork allowed.  The child tries
    ``executables`` in order, with the encoded ``env`` vector (None =
    inherit).  stdin is the shared ``/dev/null``, or a fresh pipe when
    ``stdin``; stdout and stderr are fresh pipes; the caller owns the
    parent's ends.  A failed exec or ``chdir`` raises the ``OSError``
    Popen would, after the child is reaped and every pipe end closed.
    """
    global _devnull
    if _devnull is None:
        with _probe_lock:
            if _devnull is None:
                _devnull = os.open(os.devnull, os.O_RDONLY)
    in_r, in_w = os.pipe() if stdin else (_devnull, -1)
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    # The child's exec error comes back on this pipe; its write end must
    # not sit on fds 0-2, which the child's dup2s overwrite.
    report_r, report_w = os.pipe()
    if report_w < 3:
        low, report_w = report_w, fcntl.fcntl(report_w, fcntl.F_DUPFD_CLOEXEC, 3)
        os.close(low)
    child_ends = [out_w, err_w, report_w] + ([in_r] if stdin else [])
    try:
        try:
            pid = fork_exec(
                argv, executables, True, (report_w,), cwd, env,
                in_r, -1, -1, out_w, -1, err_w, report_r, report_w,
                True, True, *_FORK_EXEC_TAIL,
            )
        finally:
            for fd in child_ends:
                os.close(fd)
        # EOF at exec (the write end is CLOEXEC), or the child's report.
        report = b""
        while part := os.read(report_r, 50000):
            report += part
        if report:
            os.waitpid(pid, 0)
            raise _exec_error(report, argv[0], cwd)
    except BaseException:
        for fd in (out_r, err_r, in_w):
            if fd >= 0:
                os.close(fd)
        raise
    finally:
        os.close(report_r)
    return pid, out_r, err_r, in_w


#: Longest wait one ``poll`` call takes (a C int of ms); a longer timeout
#: is waited out over several calls.
_POLL_MAX_MS = 2**31 - 1


def _reap(pid: int, deadline: "float | None") -> "int | None":
    """``os.waitpid`` the job: blocking without a deadline, else the
    bounded sleep loop ``Popen.wait(timeout)`` uses; returns the wait
    status, or None once ``deadline`` passes with the job still running."""
    if deadline is None:
        return os.waitpid(pid, 0)[1]
    delay = 0.0005
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        delay = min(delay * 2, remaining, 0.05)
        time.sleep(delay)


def _collect(
    pid: int,
    out_r: int,
    err_r: int,
    timeout: "float | None",
    stream: "Callable[[str], None] | None" = None,
    encoding: str = "utf-8",
    in_w: int = -1,
    data: bytes = b"",
) -> "tuple[int, bytes, bytes, bool]":
    """Feed ``data`` to the job's stdin, read its stdout and stderr pipes
    to EOF, then reap it; returns ``(returncode, stdout, stderr,
    timed_out)`` and closes every pipe end it was given.

    One ``poll`` loop on the (up to) three fds, in the calling thread.
    stdin is written through the non-blocking ``in_w`` and closed once
    ``data`` is out; a job that exits without reading it (EPIPE) is not
    an error, as with ``communicate()``.  A pipe that reports hang-up
    without data is at EOF and costs no read, so a job that writes
    nothing is collected with one ``poll`` and one ``waitpid``.  At
    ``timeout`` the group is killed, stdin dropped, and collection drains
    on; if ``stream`` raises, the job is killed and still reaped before
    the error propagates.  No path leaves the job unreaped.

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
    live, sent, fed, timed_out, status = 2, 0, 0, False, None

    def close_stdin() -> None:
        nonlocal in_w
        if in_w >= 0:
            poller.unregister(in_w)
            os.close(in_w)
            in_w = -1

    if in_w >= 0:
        if data:
            os.set_blocking(in_w, False)
            poller.register(in_w, select.POLLOUT)
        else:  # nothing to feed: the job reads EOF at once
            os.close(in_w)
            in_w = -1
    view = memoryview(data)
    try:
        while live or in_w >= 0:
            if left() == 0:
                kill_group(pid)
                close_stdin()
                timed_out, deadline = True, None
                continue
            wait = left()
            for fd, event in poller.poll(None if wait is None
                                         else min(wait * 1000, _POLL_MAX_MS)):
                if fd == in_w:
                    try:
                        fed += os.write(in_w, view[fed:fed + _CHUNK])
                    except BrokenPipeError:
                        fed = len(data)  # the job stopped reading
                    if fed >= len(data):
                        close_stdin()
                    continue
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
        # All pipes closed; the deadline still covers the exit.
        status = _reap(pid, deadline)
        timed_out = timed_out or status is None
    finally:
        for fd in (out_r, err_r, in_w):
            if fd >= 0:
                os.close(fd)
        if status is None:  # timed out, or ``stream`` raised
            kill_group(pid)
            status = os.waitpid(pid, 0)[1]
    return os.waitstatus_to_exitcode(status), bytes(out), bytes(err), timed_out


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

    A plain command (:func:`_plain_argv`) under a ``shell`` that is dash
    or bash (under any name) is exec'd directly on either leg, with a
    PATH search and the environment that shell reported passing
    (:class:`_ExecEnv`), and reports ``direct=True``.  If that exec
    fails, the program never ran and the job is launched again through
    the shell, which reports the failure (127/126 and its message) as
    before.  A direct job killed by a signal reports it (a negative
    ``returncode``) where dash would have turned it into ``128+n``.

    The job is its own session and process-group leader; it is registered
    in ``table`` for its whole life (so a cancel kills it), gets ``nice``
    applied to its group, and on ``timeout`` its group is SIGTERMed and
    collection continues until the pipes close (``timed_out=True``).

    The leg is picked from the inputs alone:

    ======================  ===========  ==================================
    inputs                  leg          why
    ======================  ===========  ==================================
    ``launcher`` (and no    posix_spawn  argv/env pre-built per run; output
    cwd, stdin or stream)   + reaper     multiplexed by ``reaper``
                                         (``--spawn-path posix``)
    anything else           fork_exec +  the in-process default ("popen"):
                            poll loop    ``fork_exec`` releases the GIL
                                         across vfork→exec;
                                         :func:`_collect` feeds ``stdin``
                                         (``--pipe``) and reads the two
                                         output pipes in this thread,
                                         handing stdout to ``stream``
                                         (``--linebuffer``);
                                         ``posix_spawn`` has no cwd
    ======================  ===========  ==================================

    On every leg a job is open until every writer has closed its pipes,
    so a backgrounded grandchild still holding stdout keeps it running.
    The fork_exec leg runs in bytes mode with ``shell``, ``env`` (None =
    inherit) and ``stdin`` encoded with ``encoding``.  ``reaper`` must
    come from a :class:`LiveReaper`; if it closes between that pick and
    registration, the job is collected by :func:`wait_inline` and
    reports :data:`REAPER_GONE` on stderr.
    """
    start = time.time()
    forked = launcher is None or cwd is not None or stdin is not None or stream is not None
    if forked:
        data = b"" if stdin is None else stdin.encode(encoding)
        ctx = _exec_env(env, cwd, shell)
        argv = _plain_argv(command)
        direct = argv is not None and ctx.direct_env is not None
        if direct:
            try:
                launched = _launch(argv, ctx.executables(argv[0]), cwd,
                                   ctx.direct_env, stdin is not None)
            except OSError:
                direct = False  # it never ran; the shell reports why
        if not direct:
            launched = _launch([shell, "-c", command], ctx.executables(shell),
                               cwd, ctx.shell_env, stdin is not None)
        pid, out_r, err_r, in_w = launched
    else:
        pid, out_r, err_r, direct = launcher.start(command)
    spawned = time.time()
    set_nice(pid, nice)
    table.add(pid)
    timed_out = False
    try:
        if forked:
            returncode, out, err, timed_out = _collect(
                pid, out_r, err_r, timeout, stream, encoding, in_w, data)
        else:
            assert reaper is not None, "the posix_spawn leg needs a reaper"
            try:
                handle = reaper.register(pid, out_r, err_r)
            except RuntimeError:
                return Completed(pid, wait_inline(pid, out_r, err_r), b"",
                                 REAPER_GONE, start, spawned, time.time(),
                                 direct=direct)
            if not handle.wait(timeout):
                kill_group(pid)
                handle.wait()
                timed_out = True
            out, err = bytes(handle.stdout_buf), bytes(handle.stderr_buf)
            returncode = handle.returncode if handle.returncode is not None else -1
    finally:
        table.discard(pid)
    return Completed(pid, returncode, out, err, start, spawned, time.time(),
                     timed_out, direct)
