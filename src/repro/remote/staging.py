"""File staging for remote jobs (``--transferfile``/``--return``/etc).

GNU Parallel semantics, executed over a :class:`~repro.remote.transport.Transport`:

``--transferfile tmpl``
    Render ``tmpl`` per job; copy the local file to the host, landing
    *relative to the remote workdir* with any leading ``/`` (and ``./``)
    stripped — the rsync ``--relative`` rule.
``--return tmpl``
    Render per job; after a *successful* job, fetch the remote file back
    to the same local path.  A missing return file after success is a
    :class:`~repro.errors.StagingError` (job-local failure); after a
    failed job the fetch is attempted but a miss is forgiven — the job's
    own exit code is the story.
``--cleanup``
    Remove every transferred and returned file from the host afterwards
    (success or failure).  Directories stay: another slot on the host
    may have just created one for its own output.
``--basefile path``
    Like ``--transferfile`` but literal (no per-job render) and staged at
    most once per host per run; never cleaned up mid-run.

The render uses the job's own (args, seq, slot) so ``--transferfile {}``
or ``--return out/{#}.txt`` track each job exactly as its command does.

Every phase runs in the job's own slot thread, around its command:
stage-in once the job holds a host lease, stage-out and cleanup once the
command has exited.  Nothing is staged ahead of the lease, because the
host a queued job will get is not known before it.

Every transfer goes through the run's
:class:`~repro.remote.cache.StagingCache`, so transfers are
content-addressed: a file already staged to a host is never pushed again
this run, ``--basefile`` and ``--transferfile`` dedup against each other,
and ``--cleanup`` is refcounted — the remote copy is removed when the
*last* referencing job finishes, not after each one.  ``--basefile`` is
additionally gated per host, so the cache is consulted once per host
rather than once per job; a job that arrives while the push is still in
flight *waits for it* instead of running against a half-staged file.

The ``:`` localhost is exempt from all of this: GNU Parallel does no
transfer/return/cleanup for the transport-free local machine (a "copy"
would be a same-path no-op, and cleanup would delete the user's own
files), so the backend never drives these phases for ``host.is_local``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.template import CommandTemplate
from repro.errors import StagingError
from repro.remote.cache import StagingCache
from repro.storage.transfer import remote_relpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job
    from repro.remote.hosts import HostSpec
    from repro.remote.transport import Transport

__all__ = ["StagingPolicy"]


def _templates(specs: list[str]) -> list[CommandTemplate]:
    # implicit_append=False: a literal path like "in/data.txt" must stay
    # literal, not become "in/data.txt {}".
    return [CommandTemplate(s, implicit_append=False) for s in specs]


class _BaseGate:
    """Completion gate for one host's ``--basefile`` push."""

    __slots__ = ("event", "ok")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.ok = False


@dataclass
class StagingPolicy:
    """One run's staging plan; stateless per job except the shared caches."""

    transfer: list[CommandTemplate] = field(default_factory=list)
    returns: list[CommandTemplate] = field(default_factory=list)
    basefiles: list[str] = field(default_factory=list)
    cleanup: bool = False
    #: ``--workdir`` policy forwarded to ``Transport.ensure_workdir``.
    workdir: Optional[str] = None
    #: Content-addressed dedup cache every transfer goes through.
    cache: StagingCache = field(default_factory=StagingCache)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._base_gates: dict[str, _BaseGate] = {}

    @classmethod
    def from_options(cls, options) -> "StagingPolicy":
        return cls(
            transfer=_templates(list(options.transfer_files)),
            returns=_templates(list(options.return_files)),
            basefiles=list(options.basefiles),
            cleanup=options.cleanup,
            workdir=options.workdir,
        )

    @property
    def active(self) -> bool:
        """True when any staging work exists (skip the whole path if not)."""
        return bool(self.transfer or self.returns or self.basefiles)

    # -- per-job rendering ---------------------------------------------------
    def transfer_paths(self, job: "Job", slot: int) -> list[tuple[str, str]]:
        """``[(local_src, remote_rel)]`` for this job's ``--transferfile``s."""
        return [
            (p, remote_relpath(p))
            for t in self.transfer
            for p in [t.render(job.args, seq=job.seq, slot=slot)]
        ]

    def return_paths(self, job: "Job", slot: int) -> list[tuple[str, str]]:
        """``[(remote_rel, local_dest)]`` for this job's ``--return``s."""
        return [
            (remote_relpath(p), p)
            for t in self.returns
            for p in [t.render(job.args, seq=job.seq, slot=slot)]
        ]

    # -- phases driven by the backend -----------------------------------------
    def stage_basefiles(
        self, transport: "Transport", host: "HostSpec", workdir: str
    ) -> None:
        """Stage ``--basefile``s once per host (idempotent, thread-safe).

        The per-host :class:`_BaseGate` closes the old mark-before-push
        race: a concurrent job on the same host blocks until the push has
        *finished* instead of skipping staging while the file is still in
        flight.  A failed push discards the gate so a later job retries.
        """
        if not self.basefiles:
            return
        while True:
            with self._lock:
                gate = self._base_gates.get(host.name)
                if gate is None:
                    gate = _BaseGate()
                    self._base_gates[host.name] = gate
                    owner = True
                else:
                    owner = False
            if not owner:
                gate.event.wait()
                if gate.ok:
                    return
                # The pusher failed; forget its gate and race to retry.
                with self._lock:
                    if self._base_gates.get(host.name) is gate:
                        del self._base_gates[host.name]
                continue
            try:
                for path in self.basefiles:
                    # permanent=True: basefiles are never cleaned mid-run,
                    # whatever --cleanup says.
                    self.cache.ensure(
                        transport, host, path, remote_relpath(path), workdir,
                        permanent=True,
                    )
            except Exception:
                with self._lock:
                    if self._base_gates.get(host.name) is gate:
                        del self._base_gates[host.name]
                gate.event.set()
                raise
            gate.ok = True
            gate.event.set()
            return

    def stage_in(
        self, transport: "Transport", host: "HostSpec", job: "Job",
        slot: int, workdir: str, tracer=None,
    ) -> list[str]:
        """Push this job's inputs; returns remote relpaths (for cleanup).

        Each push is content-addressed: an input already staged to this
        host is a hit (one reference retained, no bytes moved) and emits a
        ``cache_hit`` instant on the tracer.
        """
        staged: list[str] = []
        for src, rel in self.transfer_paths(job, slot):
            _moved, hit = self.cache.ensure(transport, host, src, rel, workdir)
            if hit and tracer is not None:
                tracer.instant(
                    "cache_hit", seq=job.seq, slot=slot,
                    host=host.name, file=rel, cat="staging",
                )
            staged.append(rel)
        return staged

    def stage_out(
        self, transport: "Transport", host: "HostSpec", job: "Job",
        slot: int, workdir: str, job_ok: bool,
    ) -> list[str]:
        """Fetch this job's ``--return`` files; returns remote relpaths.

        After a successful job every declared return file must exist; after
        a failed one, whatever is there is salvaged and misses are ignored.
        """
        fetched: list[str] = []
        for rel, dest in self.return_paths(job, slot):
            try:
                transport.get(host, rel, dest, workdir)
            except StagingError:
                if job_ok:
                    raise
                continue
            fetched.append(rel)
        return fetched

    def cleanup_remote(
        self, transport: "Transport", host: "HostSpec",
        relpaths: list[str], workdir: str, fetched: tuple = (),
    ) -> int:
        """Remove staged files after the job (``--cleanup``); best-effort.

        ``relpaths`` are the job's staged inputs, ``fetched`` its returned
        outputs.  Inputs are *released*: only those whose last reference
        this was are physically removed — a shared input outlives each
        individual job and is cleaned once, after its final consumer.
        """
        if not self.cleanup:
            return 0
        # Dedup, preserving order (a path may be both transferred and returned).
        rels = list(dict.fromkeys(relpaths))
        extra = [r for r in dict.fromkeys(fetched) if r not in set(rels)]
        releasable = self.cache.release(host, rels)
        # Returned files are per-job outputs, never cache-managed: always
        # removed.  Staged inputs with no cache entry (host invalidated
        # mid-run) are left alone — the host's state is unknown.
        doomed = releasable + extra
        if not doomed:
            return 0
        try:
            return transport.remove(host, doomed, workdir)
        finally:
            self.cache.removal_done(host, releasable)

    def invalidate_host(self, name: str) -> None:
        """Forget everything staged to host ``name`` (its transport failed).

        Drops the host's ``--basefile`` gate along with its cache entries:
        nothing believed about a dropped host's filesystem survives, so
        the next job placed there pushes its basefiles again.
        """
        with self._lock:
            self._base_gates.pop(name, None)
        self.cache.invalidate_host(name)

    def staging_stats(self) -> dict:
        """Cache counter snapshot."""
        return self.cache.stats()
