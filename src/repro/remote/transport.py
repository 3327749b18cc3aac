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

Persistent channels
-------------------

:meth:`Transport.open_channel` returns a :class:`Channel` — one
long-lived control session per host, opened once per run by the remote
backend.  A channel keeps every Transport method signature (including
the ``host`` parameter), so staging code drives a channel and a bare
transport interchangeably; what changes is the cost model: per-host
session state (merged environment, spawn machinery, simulated connect
latency) is paid at :meth:`~Transport.open_channel` instead of per job.
The base :class:`Channel` simply delegates to its transport — wrapper
transports (fault injection) inherit that and keep intercepting.
"""

from __future__ import annotations

import locale
import os
import shutil
import tempfile
import threading
import uuid
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.backends.spawn import (
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    decode_output,
    merged_env,
    run_command,
    spawn_supported,
    wrap_chdir,
)
from repro.core.options import TMPDIR_WORKDIR
from repro.errors import StagingError, TransportError
from repro.remote.hosts import HostSpec
from repro.sim.netmodel import NetModel
from repro.storage.transfer import copy_file, plan_streams, remove_files

__all__ = [
    "Channel",
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

    def open_channel(self, host: HostSpec) -> "Channel":
        """Open one persistent control channel to ``host``.

        Called once per host at run start by the remote backend; every
        per-job operation then goes through the channel.  The default is
        a transparent delegator — transports with amortizable per-host
        session cost override this.
        """
        return Channel(self, host)


class Channel:
    """A persistent per-host control session on a :class:`Transport`.

    Method signatures mirror the transport's (``host`` included) so
    staging policies drive either without caring which they hold; the
    bound ``host`` is authoritative — the parameter is accepted for
    signature compatibility and ignored.  This base class delegates
    verbatim (correct for wrapper transports such as fault injectors,
    whose interception must stay on the path); subclasses amortize.
    """

    def __init__(self, transport: Transport, host: HostSpec):
        self.transport = transport
        self.host = host

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
        return self.transport.execute(
            self.host, command, workdir=workdir, stdin=stdin, env=env,
            timeout=timeout, seq=seq, attempt=attempt,
        )

    def put(self, host: HostSpec, src: str, relpath: str, workdir: str) -> int:
        return self.transport.put(self.host, src, relpath, workdir)

    def get(self, host: HostSpec, relpath: str, dest: str, workdir: str) -> int:
        return self.transport.get(self.host, relpath, dest, workdir)

    def remove(self, host: HostSpec, relpaths: list[str], workdir: str) -> int:
        return self.transport.remove(self.host, relpaths, workdir)

    def close(self) -> None:
        """Release channel-held session state (the transport stays open)."""


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
        #: In-flight jobs of this transport and all its channels, so
        #: ``cancel_all`` covers everything.
        self._table = ProcessTable()
        self._lock = threading.Lock()
        self._tmp_workdirs: list[str] = []
        #: Shared pipe reaper serving every channel's spawn path.
        self._reapers = LiveReaper()
        self._encoding = locale.getpreferredencoding(False)

    def open_channel(self, host: HostSpec) -> "Channel":
        """A persistent session: env merged once, posix_spawn + shared reaper."""
        return _LocalChannel(self, host)

    def _run(self, host: HostSpec, command: str, **kwargs) -> ExecResult:
        """:func:`run_command` mapped to the transport contract."""
        if self._table.cancelled.is_set():
            return ExecResult(exit_code=-1, stderr="cancelled", timed_out=False)
        try:
            done = run_command(
                command, table=self._table, shell=self.shell,
                encoding=self._encoding, **kwargs,
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
        os.makedirs(path, exist_ok=True)
        return path

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
            os.makedirs(path, exist_ok=True)
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
        return self._run(
            host, command, cwd=workdir, stdin=stdin, env=merged_env(env),
            timeout=timeout,
        )

    # -- staging -----------------------------------------------------------
    def put(self, host: HostSpec, src: str, relpath: str, workdir: str) -> int:
        try:
            return copy_file(src, os.path.join(workdir, relpath))
        except OSError as exc:
            raise TransportError(
                f"transfer to {host.name!r} failed: {exc}", phase="transfer"
            ) from None

    def get(self, host: HostSpec, relpath: str, dest: str, workdir: str) -> int:
        src = os.path.join(workdir, relpath)
        if not os.path.isfile(src):
            raise StagingError(
                f"return file {relpath!r} not found on {host.name!r}"
            )
        try:
            return copy_file(src, dest)
        except OSError as exc:
            raise TransportError(
                f"return from {host.name!r} failed: {exc}", phase="return"
            ) from None

    def remove(self, host: HostSpec, relpaths: list[str], workdir: str) -> int:
        # No directory pruning (root=None): the workdir is shared by every
        # slot on the host, and pruning a momentarily-empty directory races
        # with a concurrent job that just mkdir-ed it for its own output.
        return remove_files([os.path.join(workdir, rel) for rel in relpaths])

    # -- lifecycle ---------------------------------------------------------
    def cancel_all(self) -> None:
        self._table.kill_all()

    def close(self) -> None:
        self.cancel_all()
        with self._lock:
            tmp_workdirs, self._tmp_workdirs = self._tmp_workdirs, []
            root, own = self._root, self._own_root
            if own:
                self._root = None
        self._reapers.close()
        for path in tmp_workdirs:
            shutil.rmtree(path, ignore_errors=True)
        if own and root is not None:
            shutil.rmtree(root, ignore_errors=True)
        self._table = ProcessTable()


class _LocalChannel(Channel):
    """A persistent local "ssh session": the per-job costs a real control
    master amortizes — environment assembly, connection/session setup —
    are paid once here, and per-job execution takes the posix_spawn +
    shared-reaper fast path (``cd`` is done by the spawned shell, since
    ``posix_spawn`` has no working-directory attribute).

    Delegates to the transport's Popen path per call when the job needs
    stdin (``--pipe``) or the platform lacks posix_spawn support.
    """

    def __init__(self, transport: "LocalTransport", host: HostSpec):
        super().__init__(transport, host)
        self._launcher: Optional[SpawnLauncher] = None
        #: The ``env`` mapping the launcher's merged vector was built from
        #: (compared with ``is`` — it is per-run constant ``options.env``).
        self._env_src: Optional[dict[str, str]] = None

    def _launcher_for(self, env: Optional[dict[str, str]]) -> SpawnLauncher:
        if self._launcher is None or env is not self._env_src:
            if self._launcher is not None:
                self._launcher.close()
            self._launcher = SpawnLauncher(self.transport.shell, env=merged_env(env))
            self._env_src = env
        return self._launcher

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
        if stdin is not None or not spawn_supported():
            return super().execute(
                host, command, workdir=workdir, stdin=stdin, env=env,
                timeout=timeout, seq=seq, attempt=attempt,
            )
        transport = self.transport
        return transport._run(
            self.host, wrap_chdir(workdir, command),
            launcher=self._launcher_for(env), reaper=transport._reapers.get(),
            timeout=timeout,
        )

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.close()
            self._launcher = None


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
        model: NetModel = NetModel(),
        runtime_s: float = 0.0,
        seed: int = 0,
        handler: Optional[Callable[[HostSpec, str], tuple[int, str]]] = None,
    ):
        from repro.sim.random import RngRegistry

        self.model = model
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
        duration = self.model.exec_time(self.runtime_s, self._jitter_u(host))
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
        # Charge the same multi-stream shape the executable transport
        # uses, so calibrated benches see identical data-motion policy.
        self._advance(host, self.model.transfer_time(
            len(content), self._jitter_u(host),
            streams=plan_streams(len(content)),
        ))
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

    def open_channel(self, host: HostSpec) -> "Channel":
        """A persistent session: connect latency charged once, here."""
        return _SimChannel(self, host)


class _SimChannel(Channel):
    """Persistent simulated session: the :class:`NetModel` connect latency
    is charged to the host's clock once at open; each execute then costs
    only the job's runtime (jittered) — the cost model a long-lived ssh
    control connection produces, and the contrast the multi-host scaling
    experiments measure against the per-job-connect transport path.
    """

    def __init__(self, transport: "SimTransport", host: HostSpec):
        super().__init__(transport, host)
        transport._advance(host, transport.model.latency_s)

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
        transport = self.transport
        u = transport._jitter_u(self.host)
        duration = transport.runtime_s * (1.0 + transport.model.jitter * u)
        if timeout is not None and duration > timeout:
            transport._advance(self.host, timeout)
            return ExecResult(
                exit_code=-1, timed_out=True, duration=timeout,
                stderr=f"simulated timeout after {timeout:.4g}s",
            )
        transport._advance(self.host, duration)
        with transport._lock:
            transport.exec_log.append((self.host.name, command, seq))
        exit_code, stdout = (
            transport.handler(self.host, command) if transport.handler else (0, "")
        )
        return ExecResult(exit_code=exit_code, stdout=stdout, duration=duration)
