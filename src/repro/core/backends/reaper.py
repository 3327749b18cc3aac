"""Shared pipe reaper: one ``selectors`` loop multiplexing every job's I/O.

The fork_exec leg dedicates the calling worker thread to each job's
``poll`` loop and ``waitpid``.  The reaper amortizes all of that into a single background
thread: workers register a spawned pid plus its stdout/stderr read fds and
block on a per-job event; the reaper drains every registered pipe through
one ``selectors.DefaultSelector``, collects exit statuses, and wakes the
owning worker when both streams hit EOF and the process is reaped.

Exit-status collection has two legs (the "reap ladder"):

``pidfd`` (Linux >= 5.3, the default where available)
    Each registered pid also gets an ``os.pidfd_open`` descriptor added to
    the same selector.  A pidfd becomes readable exactly once, when the
    process terminates, so the loop gets *one epoll wakeup per exit* and
    collects the status with a single guaranteed-ready
    ``waitpid(WNOHANG)`` — no polling cycle at all.

``waitpid`` polling (the fallback)
    On platforms without ``os.pidfd_open`` (or kernels/seccomp profiles
    where the first call fails), processes whose pipes have hit EOF are
    polled with ``waitpid(WNOHANG)`` every ``_ZOMBIE_POLL`` seconds until
    reaped — the pre-pidfd behaviour, kept bit-identical.

The ladder is probed per reaper instance at first registration and looked
up through ``os`` at call time, so tests can exercise the fallback by
monkeypatching ``os.pidfd_open``.

Semantics match ``Popen.communicate()``: completion means *EOF on both
pipes and the child reaped* — a job that backgrounds a grandchild holding
the pipe open is still "running" until that write end closes, exactly as
on the fork_exec leg.  The pidfd leg preserves this: a collected exit status
is held until both pipes close.
"""

from __future__ import annotations

import collections
import os
import selectors
import threading
from typing import Optional

__all__ = ["PipeReaper", "ReapHandle", "pidfd_supported"]

_CHUNK = 65536
#: Poll period for zombie collection while processes have closed their
#: pipes but not yet been waited on — only reached on the waitpid
#: fallback leg (with pidfds, exits arrive as selector events).
_ZOMBIE_POLL = 0.02


def pidfd_supported() -> bool:
    """True when this process can obtain pidfds for its children.

    Checked with a real ``pidfd_open`` on our own pid: the symbol exists
    on any Linux Python >= 3.9 build, but the syscall itself needs kernel
    >= 5.3 and may be denied by seccomp — only a live probe tells.
    """
    opener = getattr(os, "pidfd_open", None)
    if opener is None:
        return False
    try:
        fd = opener(os.getpid())
    except OSError:
        return False
    os.close(fd)
    return True


class ReapHandle:
    """One registered job's collection state; workers ``wait()`` on it."""

    __slots__ = (
        "pid", "stdout_buf", "stderr_buf", "returncode",
        "_event", "_open_fds", "_pidfd", "_status",
    )

    def __init__(self, pid: int):
        self.pid = pid
        self.stdout_buf = bytearray()
        self.stderr_buf = bytearray()
        #: Exit status in ``Popen.returncode`` convention (negative =
        #: killed by that signal); None until reaped.
        self.returncode: Optional[int] = None
        self._event = threading.Event()
        self._open_fds = 2
        #: The job's pidfd while registered with the selector; -1 on the
        #: waitpid fallback leg (or after the pidfd has fired).
        self._pidfd = -1
        #: Exit status collected ahead of pipe EOF (pidfd leg); completion
        #: still waits for both pipes to close.
        self._status: Optional[int] = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is fully collected; False on timeout."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    # -- reaper-side hooks ---------------------------------------------------
    def _finish(self, returncode: int) -> None:
        self.returncode = returncode
        self._event.set()


class PipeReaper:
    """The shared multiplexer thread.  One instance serves one backend run.

    The thread starts lazily on first registration and exits on
    :meth:`close`.  If the loop ever dies on an unexpected error, every
    outstanding handle is released with exit code 127 and ``alive`` turns
    False — ``LiveReaper`` then builds a fresh one for the next job.

    ``use_pidfd`` selects the exit-collection leg: None (default) probes
    on first registration, False forces the waitpid-polling fallback.
    """

    def __init__(self, use_pidfd: Optional[bool] = None) -> None:
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        self._pending: "collections.deque[tuple[ReapHandle, int, int]]" = (
            collections.deque()
        )
        self._zombies: list[ReapHandle] = []
        self._handles: set[ReapHandle] = set()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.alive = True
        #: pidfd leg state: None = not probed yet, True = in use, False =
        #: unavailable (missing symbol, ENOSYS, seccomp, ...) — then every
        #: handle takes the waitpid-polling leg.
        self._use_pidfd = use_pidfd

    @property
    def pidfd_enabled(self) -> bool:
        """True once the reaper has successfully opened a pidfd."""
        return self._use_pidfd is True

    def register(self, pid: int, stdout_fd: int, stderr_fd: int) -> ReapHandle:
        """Hand a spawned job's pipes to the loop; returns its handle."""
        handle = ReapHandle(pid)
        with self._lock:
            if self._closed or not self.alive:
                raise RuntimeError("reaper is closed")
            self._pending.append((handle, stdout_fd, stderr_fd))
            self._handles.add(handle)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name="repro-reaper"
                )
                self._thread.start()
        self._wake()
        return handle

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stop the loop, releasing any outstanding handles (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        self._wake()
        if thread is not None:
            thread.join(timeout=2.0)
        if thread is None:
            # The loop never started: nothing owns the selector yet.
            self._teardown()

    # -- internals -----------------------------------------------------------
    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException:
            self.alive = False
        finally:
            self._teardown()

    def _loop(self) -> None:
        while True:
            if self._closed:
                return
            timeout = _ZOMBIE_POLL if self._zombies else None
            for key, _ in self._sel.select(timeout):
                if key.data is None:  # wake pipe
                    try:
                        while os.read(self._wake_r, 4096):
                            pass
                    except OSError:
                        pass
                    self._admit_pending()
                    continue
                handle, which = key.data
                if which == 0:  # pidfd readable: the process terminated
                    self._sel.unregister(key.fd)
                    os.close(key.fd)
                    handle._pidfd = -1
                    if not self._collect_status(handle):
                        # Can't happen per pidfd semantics; stay safe.
                        self._zombies.append(handle)
                    elif handle._open_fds == 0:
                        self._finalize(handle)
                    continue
                try:
                    chunk = os.read(key.fd, _CHUNK)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if chunk:
                    buf = handle.stdout_buf if which == 1 else handle.stderr_buf
                    buf += chunk
                    continue
                self._sel.unregister(key.fd)
                os.close(key.fd)
                handle._open_fds -= 1
                if handle._open_fds == 0:
                    if handle._status is not None:
                        self._finalize(handle)  # pidfd already collected
                    elif handle._pidfd < 0:
                        self._zombies.append(handle)  # waitpid fallback leg
                    # else: pidfd registered; its event delivers the status
            self._collect_zombies()

    def _admit_pending(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                handle, out_fd, err_fd = self._pending.popleft()
            os.set_blocking(out_fd, False)
            os.set_blocking(err_fd, False)
            self._sel.register(out_fd, selectors.EVENT_READ, (handle, 1))
            self._sel.register(err_fd, selectors.EVENT_READ, (handle, 2))
            pidfd = self._open_pidfd(handle.pid)
            if pidfd is not None:
                handle._pidfd = pidfd
                self._sel.register(pidfd, selectors.EVENT_READ, (handle, 0))

    def _open_pidfd(self, pid: int) -> Optional[int]:
        """One pidfd for ``pid``, or None on the waitpid fallback leg.

        Looked up through ``os`` at call time (not import time) so a
        monkeypatched ``pidfd_open`` exercises the fallback.  The first
        failure disables the leg for the whole reaper: ENOSYS (kernel
        < 5.3) and seccomp denials are process-wide conditions, and the
        zombie-poll path covers everything anyway.
        """
        if self._use_pidfd is False:
            return None
        opener = getattr(os, "pidfd_open", None)
        if opener is None:
            self._use_pidfd = False
            return None
        try:
            fd = opener(pid)
        except OSError:
            self._use_pidfd = False
            return None
        self._use_pidfd = True
        return fd

    def _collect_status(self, handle: ReapHandle) -> bool:
        """waitpid(WNOHANG) for one handle; True when the status landed."""
        try:
            pid, status = os.waitpid(handle.pid, os.WNOHANG)
        except ChildProcessError:
            pid, status = handle.pid, 0  # reaped elsewhere; assume ok
        if pid == 0:
            return False
        handle._status = os.waitstatus_to_exitcode(status)
        return True

    def _finalize(self, handle: ReapHandle) -> None:
        """Release a fully-collected handle (status + both pipe EOFs)."""
        with self._lock:
            self._handles.discard(handle)
        status = handle._status if handle._status is not None else 0
        handle._finish(status)

    def _collect_zombies(self) -> None:
        if not self._zombies:
            return
        still: list[ReapHandle] = []
        for handle in self._zombies:
            if not self._collect_status(handle):
                still.append(handle)
                continue
            self._finalize(handle)
        self._zombies = still

    def _teardown(self) -> None:
        """Close every fd and release every waiter (loop exit path)."""
        for key in list(self._sel.get_map().values()):
            if key.data is None:
                continue
            try:
                self._sel.unregister(key.fd)
                os.close(key.fd)
            except (OSError, KeyError):
                pass
        with self._lock:
            pending, self._pending = list(self._pending), collections.deque()
            outstanding, self._handles = list(self._handles), set()
        for handle, out_fd, err_fd in pending:
            for fd in (out_fd, err_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
        for handle in outstanding:
            if not handle.done:
                handle._finish(127)
        try:
            self._sel.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._sel.close()
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
