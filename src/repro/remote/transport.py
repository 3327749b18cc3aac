"""Pluggable execution transports for the remote dispatch layer.

A :class:`Transport` moves one job's command (and its staged files) to a
host and back.  The contract mirrors the backend contract one level down:

* a job *failing* (nonzero exit, timeout) is an :class:`ExecResult` —
  never an exception;
* the *host* failing (unreachable, connection dropped) is a
  :class:`~repro.errors.TransportError` — the signal the backend uses to
  re-place the job on another host and count toward banning;
* a *job-local* staging problem (missing ``--transferfile`` source) is a
  :class:`~repro.errors.StagingError` — the job fails, the host does not.

Two implementations:

:class:`LocalTransport`
    Real subprocesses.  Named hosts become isolated directory roots under
    a private temp dir — a faithful single-machine stand-in for N remote
    filesystems (used by tests and single-machine runs); the ``:`` host
    runs in the real working directory with no root, exactly like GNU
    Parallel's transport-free localhost.

:class:`SimTransport`
    No processes at all: per-host virtual clocks advanced by a calibrated
    :class:`~repro.sim.netmodel.NetModel`, with deterministic per-host
    jitter streams.  Lets placement/health logic and multi-host scaling
    studies run at memory speed.

The transport is the session
----------------------------

A transport holds the per-host session state GNU Parallel gets from one
ssh ControlMaster per host, and pays for it once instead of per job:
:class:`LocalTransport` merges the environment once per ``env`` mapping
and runs each job with one ``run_command`` call on its ``fork_exec``
leg, with ``cwd=`` the host workdir; :class:`SimTransport` charges a host's connect
latency at its first execute only.  The remote backend calls the
transport directly, so a wrapper transport (fault injection) sits on
exactly the path production takes.
"""

from __future__ import annotations

import locale
import os
import shutil
import tempfile
import threading
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.backends.spawn import (
    ProcessTable,
    decode_output,
    merged_env,
    run_command,
)
from repro.core.options import TMPDIR_WORKDIR
from repro.errors import StagingError, TransportError
from repro.remote.hosts import HostSpec
from repro.storage.transfer import copy_file, remove_files

if TYPE_CHECKING:  # pragma: no cover - SimTransport imports it when built
    from repro.sim.netmodel import NetModel

__all__ = [
    "ExecResult",
    "Transport",
    "LocalTransport",
    "SimTransport",
]


@dataclass(frozen=True)
class ExecResult:
    """Outcome of one remote command execution (job-level, not host-level)."""

    exit_code: int
    stdout: str = ""
    stderr: str = ""
    timed_out: bool = False
    duration: float = 0.0


class Transport:
    """Interface the :class:`~repro.remote.backend.RemoteBackend` drives."""

    def ensure_workdir(self, host: HostSpec, workdir: Optional[str]) -> str:
        """Resolve and create the job working directory on ``host``.

        ``workdir`` is the ``--workdir`` policy: None = the host's default
        (login/root) dir, ``...`` = a unique per-run directory the
        transport removes at :meth:`close`, anything else = that path
        (leading ``/`` kept relative to the host's root).
        """
        raise NotImplementedError

    def execute(
        self,
        host: HostSpec,
        command: str,
        *,
        workdir: str,
        stdin: Optional[str] = None,
        env: Optional[dict[str, str]] = None,
        timeout: Optional[float] = None,
        seq: int = 0,
        attempt: int = 1,
    ) -> ExecResult:
        """Run ``command`` on ``host`` in ``workdir``; never raises for a
        failing job, raises :class:`TransportError` for a failing host."""
        raise NotImplementedError

    def put(self, host: HostSpec, src: str, relpath: str, workdir: str) -> int:
        """Stage local ``src`` to ``workdir/relpath`` on ``host`` (bytes)."""
        raise NotImplementedError

    def get(self, host: HostSpec, relpath: str, dest: str, workdir: str) -> int:
        """Fetch ``workdir/relpath`` from ``host`` to local ``dest`` (bytes)."""
        raise NotImplementedError

    def remove(self, host: HostSpec, relpaths: list[str], workdir: str) -> int:
        """Best-effort delete of staged files on ``host`` (``--cleanup``)."""
        raise NotImplementedError

    def cancel_all(self) -> None:
        """Best-effort kill of everything in flight (``--halt now``)."""

    def close(self) -> None:
        """Release transport resources (per-run tempdirs, process tables)."""


def _host_dirname(host: HostSpec) -> str:
    """A filesystem-safe directory name for a host's fake root."""
    return host.name.replace("/", "_").replace("@", "_at_")


class LocalTransport(Transport):
    """Subprocess transport with one directory root per named host.

    The per-host roots make ``--transferfile``/``--return``/``--cleanup``
    observable and byte-verifiable on one machine: a file staged to
    ``node1`` is only visible to jobs executing "on" ``node1``.  The ``:``
    host gets no root — its jobs run in the real working directory, so a
    pure-localhost roster behaves exactly like the local backend.
    """

    def __init__(self, root: Optional[str] = None, shell: str = "/bin/sh"):
        self.shell = shell
        self._root = root
        self._own_root = root is None
        self._run_id = uuid.uuid4().hex[:8]
        #: In-flight jobs on every host, so ``cancel_all`` covers everything.
        self._table = ProcessTable()
        self._lock = threading.Lock()
        self._tmp_workdirs: list[str] = []
        #: Directories this transport found missing under a caller-given
        #: root and made (or whose jobs made them under a workdir it
        #: made); :meth:`close` removes those left empty.
        self._made_dirs: set[str] = set()
        #: ``(env, merged_env(env))`` for the last ``env`` mapping seen,
        #: compared with ``is`` — it is the per-run constant ``options.env``.
        self._env_cache: tuple = (None, None)
        self._encoding = locale.getpreferredencoding(False)

    def _merged_env(self, env: Optional[dict[str, str]]) -> Optional[dict[str, str]]:
        src, merged = self._env_cache
        if env is not src:
            merged = merged_env(env)
            self._env_cache = (env, merged)
        return merged

    # -- roots and workdirs ------------------------------------------------
    def _ensure_root(self) -> str:
        with self._lock:
            if self._root is None:
                self._root = tempfile.mkdtemp(prefix="repro-remote-")
                self._own_root = True
            return self._root

    def host_root(self, host: HostSpec) -> Optional[str]:
        """The host's fake filesystem root (None for the ``:`` localhost)."""
        if host.is_local:
            return None
        path = os.path.join(self._ensure_root(), _host_dirname(host))
        self._makedirs(path)
        return path

    def _makedirs(self, path: str) -> None:
        """``os.makedirs(path)``, noting under a caller-given root each
        directory it had to make, for :meth:`close` to remove.  A
        directory seen missing was made during this run, so one the
        caller made before it is never noted."""
        root = self._root
        if self._own_root or root is None:
            os.makedirs(path, exist_ok=True)
            return
        if os.path.isdir(path):
            return
        root_abs = os.path.abspath(root)
        missing = []
        parent = os.path.abspath(path)
        while parent.startswith(root_abs + os.sep) and not os.path.isdir(parent):
            missing.append(parent)
            parent = os.path.dirname(parent)
        os.makedirs(path, exist_ok=True)
        with self._lock:
            self._made_dirs.update(missing)

    def ensure_workdir(self, host: HostSpec, workdir: Optional[str]) -> str:
        root = self.host_root(host)
        if workdir == TMPDIR_WORKDIR:
            base = root if root is not None else tempfile.gettempdir()
            path = os.path.join(base, f".parallel-tmp-{self._run_id}")
            with self._lock:
                if path not in self._tmp_workdirs:
                    self._tmp_workdirs.append(path)
        elif workdir is None:
            path = root if root is not None else os.getcwd()
        else:
            rel = workdir.lstrip("/") if root is not None else workdir
            path = os.path.join(root, rel) if root is not None else workdir
        try:
            self._makedirs(path)
        except OSError as exc:
            raise TransportError(
                f"cannot create workdir {path!r} on {host.name!r}: {exc}",
                phase="connect",
            ) from None
        return path

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        host: HostSpec,
        command: str,
        *,
        workdir: str,
        stdin: Optional[str] = None,
        env: Optional[dict[str, str]] = None,
        timeout: Optional[float] = None,
        seq: int = 0,
        attempt: int = 1,
    ) -> ExecResult:
        if self._table.cancelled.is_set():
            return ExecResult(exit_code=-1, stderr="cancelled")
        try:
            # A vanished workdir fails the child's chdir: a host-level error.
            done = run_command(
                command, table=self._table, shell=self.shell, cwd=workdir,
                stdin=stdin, env=self._merged_env(env),
                encoding=self._encoding, timeout=timeout,
            )
        except OSError as exc:
            raise TransportError(
                f"spawn failed on {host.name!r}: {exc}", phase="execute"
            ) from None
        return ExecResult(
            exit_code=done.returncode,
            stdout=decode_output(done.stdout, self._encoding),
            stderr=decode_output(done.stderr, self._encoding),
            timed_out=done.timed_out,
            duration=done.end - done.start,
        )

    # -- staging -----------------------------------------------------------
    def put(self, host: HostSpec, src: str, relpath: str, workdir: str) -> int:
        dest = os.path.join(workdir, relpath)
        try:
            self._makedirs(os.path.dirname(dest))
            return copy_file(src, dest)
        except OSError as exc:
            raise TransportError(
                f"transfer to {host.name!r} failed: {exc}", phase="transfer"
            ) from None

    def get(self, host: HostSpec, relpath: str, dest: str, workdir: str) -> int:
        src = os.path.join(workdir, relpath)
        try:
            size = copy_file(src, dest)
        except StagingError:
            raise StagingError(
                f"return file {relpath!r} not found on {host.name!r}"
            ) from None
        except OSError as exc:
            raise TransportError(
                f"return from {host.name!r} failed: {exc}", phase="return"
            ) from None
        self._note_job_dirs(os.path.dirname(src), workdir)
        return size

    def _note_job_dirs(self, directory: str, workdir: str) -> None:
        """Note for :meth:`close` the directories between ``workdir`` and
        ``directory`` (a job may have made them for its output), if this
        run made ``workdir``: under a workdir that was there before, the
        caller's directories and the job's cannot be told apart."""
        workdir = os.path.abspath(workdir)
        with self._lock:
            if workdir not in self._made_dirs:
                return
            parent = os.path.abspath(directory)
            while parent.startswith(workdir + os.sep):
                self._made_dirs.add(parent)
                parent = os.path.dirname(parent)

    def remove(self, host: HostSpec, relpaths: list[str], workdir: str) -> int:
        # No directory pruning here: the workdir is shared by every slot
        # on the host, and pruning a momentarily-empty directory races
        # with a concurrent job that just mkdir-ed it for its own output.
        # close() prunes once every job has run.
        return remove_files([os.path.join(workdir, rel) for rel in relpaths])

    # -- lifecycle ---------------------------------------------------------
    def cancel_all(self) -> None:
        self._table.kill_all()

    def close(self) -> None:
        """Kill what runs and remove the run's directories.

        An owned root goes whole.  Under a caller's root, the directories
        this run made are removed, deepest first, where empty: after
        ``--cleanup`` the root has no directory it did not have before,
        and keeps every one it had.
        """
        self.cancel_all()
        with self._lock:
            tmp_workdirs, self._tmp_workdirs = self._tmp_workdirs, []
            made, self._made_dirs = self._made_dirs, set()
            root, own = self._root, self._own_root
            if own:
                self._root = None
        for path in tmp_workdirs:
            shutil.rmtree(path, ignore_errors=True)
        if own and root is not None:
            shutil.rmtree(root, ignore_errors=True)
        else:
            for path in sorted(made, key=len, reverse=True):
                try:
                    os.rmdir(path)
                except OSError:  # holds files, or is gone already
                    pass
        self._table = ProcessTable()


class SimTransport(Transport):
    """Virtual-time transport: no processes, per-host clocks, seeded jitter.

    ``handler(host, command) -> (exit_code, stdout)`` lets tests script
    outcomes; the default succeeds with empty output.  ``put`` reads real
    local files (size + content) into a per-host virtual filesystem so
    staging logic is exercised end-to-end; ``provide`` seeds remote files
    (a job's "outputs") for ``--return`` paths.
    """

    def __init__(
        self,
        model: Optional[NetModel] = None,
        runtime_s: float = 0.0,
        seed: int = 0,
        handler: Optional[Callable[[HostSpec, str], tuple[int, str]]] = None,
    ):
        from repro.sim.netmodel import NetModel
        from repro.sim.random import RngRegistry

        self.model = model if model is not None else NetModel()
        self.runtime_s = runtime_s
        self.handler = handler
        self._rng = RngRegistry(seed)
        self._lock = threading.Lock()
        #: Per-host virtual seconds consumed (connects + transfers + runs).
        self.clocks: dict[str, float] = {}
        #: Per-host virtual filesystem: relpath -> content bytes.
        self.files: dict[str, dict[str, bytes]] = {}
        #: Every execute, in call order: (host name, command, seq).
        self.exec_log: list[tuple[str, str, int]] = []
        #: Hosts whose session is open (connect latency already charged).
        self._connected: set[str] = set()

    def _advance(self, host: HostSpec, seconds: float) -> None:
        with self._lock:
            self.clocks[host.name] = self.clocks.get(host.name, 0.0) + seconds

    def _jitter_u(self, host: HostSpec) -> float:
        if self.model.jitter == 0.0:
            return 0.0
        return float(self._rng.stream(f"net/{host.name}").uniform(-1.0, 1.0))

    def elapsed(self, host: HostSpec) -> float:
        """Virtual seconds this host has spent so far."""
        with self._lock:
            return self.clocks.get(host.name, 0.0)

    def provide(self, host: HostSpec, relpath: str, content: bytes = b"") -> None:
        """Seed a file on the host's virtual filesystem (a job output)."""
        with self._lock:
            self.files.setdefault(host.name, {})[relpath] = content

    # -- Transport interface -----------------------------------------------
    def ensure_workdir(self, host: HostSpec, workdir: Optional[str]) -> str:
        return f"sim://{host.name}/{(workdir or '').lstrip('/')}"

    def execute(
        self,
        host: HostSpec,
        command: str,
        *,
        workdir: str,
        stdin: Optional[str] = None,
        env: Optional[dict[str, str]] = None,
        timeout: Optional[float] = None,
        seq: int = 0,
        attempt: int = 1,
    ) -> ExecResult:
        # A long-lived control connection: the connect latency is charged
        # once per host, at its first execute; each execute then costs only
        # the job's (jittered) runtime.
        with self._lock:
            if host.name not in self._connected:
                self._connected.add(host.name)
                self.clocks[host.name] = (
                    self.clocks.get(host.name, 0.0) + self.model.latency_s
                )
        duration = self.runtime_s * (1.0 + self.model.jitter * self._jitter_u(host))
        if timeout is not None and duration > timeout:
            self._advance(host, timeout)
            return ExecResult(
                exit_code=-1, timed_out=True, duration=timeout,
                stderr=f"simulated timeout after {timeout:.4g}s",
            )
        self._advance(host, duration)
        with self._lock:
            self.exec_log.append((host.name, command, seq))
        exit_code, stdout = (
            self.handler(host, command) if self.handler else (0, "")
        )
        return ExecResult(exit_code=exit_code, stdout=stdout, duration=duration)

    def put(self, host: HostSpec, src: str, relpath: str, workdir: str) -> int:
        if not os.path.isfile(src):
            raise StagingError(f"transfer source missing: {src!r}")
        with open(src, "rb") as fh:
            content = fh.read()
        # One stream per file, as the executable transport copies it.
        self._advance(host, self.model.transfer_time(len(content), self._jitter_u(host)))
        with self._lock:
            self.files.setdefault(host.name, {})[relpath] = content
        return len(content)

    def get(self, host: HostSpec, relpath: str, dest: str, workdir: str) -> int:
        with self._lock:
            content = self.files.get(host.name, {}).get(relpath)
        if content is None:
            raise StagingError(
                f"return file {relpath!r} not found on {host.name!r}"
            )
        self._advance(host, self.model.transfer_time(len(content), self._jitter_u(host)))
        parent = os.path.dirname(dest)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(dest, "wb") as fh:
            fh.write(content)
        return len(content)

    def remove(self, host: HostSpec, relpaths: list[str], workdir: str) -> int:
        removed = 0
        with self._lock:
            table = self.files.get(host.name, {})
            for rel in relpaths:
                if table.pop(rel, None) is not None:
                    removed += 1
        # Removes are batched (one request per call, however many paths).
        self._advance(host, self.model.remove_time(len(relpaths)))
        return removed
