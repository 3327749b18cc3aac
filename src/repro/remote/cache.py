"""Content-addressed staging cache for the remote data plane.

The paper's DTN pipelines (§IV-E, Fig. 7) stay cheap because rsync skips
already-identical files; the executable data plane gets the same property
here.  A :class:`StagingCache` keys every staged file by *content* — a
fast fingerprint ``(abspath, size, mtime_ns)`` promoted to a sha256
digest only when two different fingerprints land on the same remote path
— and tracks per ``(host, relpath)`` state, so ``--transferfile {}``
over N jobs sharing one input stages it **once per host per run**
instead of once per job.  ``--basefile`` routes through the same cache,
so a basefile and a transferfile resolving to the same remote path dedup
against each other.

Concurrency contract (the generalization of the old ``--basefile``
mark-before-push race fix):

* the first thread to need ``(host, rel)`` becomes the *owner* and pushes
  while holding a pending gate (a :class:`threading.Event`);
* concurrent threads needing the same file **wait on the gate** — they
  never run while the push is still in flight, and never re-push;
* an owner's failure discards the entry and wakes the waiters, which race
  to become the new owner (a later job retries the push);
* eviction (refcount reaching zero under ``--cleanup``) installs a
  *removal gate*: a re-stage of the same path blocks until the physical
  remove has finished, so an off-critical-path cleanup can never delete a
  file a later job just re-staged.

Reference counts defer ``--cleanup``: every referencing job retains its
staged inputs and releases them when it finishes; the physical remove
happens only when the **last** referencing job lets go.  ``--basefile``
entries are retained permanently (never cleaned mid-run), preserving the
old semantics.
"""

from __future__ import annotations

import hashlib
import os
import stat
import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import StagingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.remote.hosts import HostSpec

__all__ = ["StagingCache"]

#: Read size for on-demand sha256 promotion.
_HASH_BLOCK = 1 << 20


class _Entry:
    """State of one staged ``(host, relpath)`` remote file."""

    __slots__ = ("src_fp", "size", "digest", "event", "ready", "refs",
                 "permanent")

    def __init__(self, src_fp: tuple, size: int):
        self.src_fp = src_fp
        self.size = size
        #: sha256 of the staged content; computed lazily (fast-key misses
        #: only), None until promoted.
        self.digest: Optional[str] = None
        self.event = threading.Event()
        self.ready = False
        self.refs = 0
        self.permanent = False


class StagingCache:
    """Per-run content-addressed cache of files staged to remote hosts.

    Thread-safe; one instance is shared by every worker thread (and the
    backend's staging lane) for the duration of a run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(host name, relpath) -> _Entry``
        self._entries: dict[tuple[str, str], _Entry] = {}
        #: Fast-key -> sha256 memo (one hash per unique file version).
        self._digests: dict[tuple, str] = {}
        #: Relpaths whose physical remove is in flight: re-stagers wait.
        self._removing: dict[tuple[str, str], threading.Event] = {}
        # Counters (all guarded by the lock).
        self._files_staged = 0
        self._cache_hits = 0
        self._bytes_moved = 0
        self._bytes_avoided = 0

    # -- content identity ----------------------------------------------------
    @staticmethod
    def fingerprint(path: str) -> tuple:
        """Fast content key: ``(abspath, size, mtime_ns)``.

        Cheap enough for the per-job path (one ``stat``); two equal
        fingerprints are the same file version without reading a byte.
        A missing source is the job's fault: :class:`StagingError`.
        """
        try:
            st = os.stat(path)
        except OSError:
            raise StagingError(f"transfer source missing: {path!r}") from None
        if not stat.S_ISREG(st.st_mode):
            raise StagingError(f"transfer source is not a file: {path!r}")
        return (os.path.abspath(path), st.st_size, st.st_mtime_ns)

    def digest_for(self, path: str, fp: Optional[tuple] = None) -> str:
        """sha256 of ``path``, memoized per fingerprint (promote on demand)."""
        fp = fp if fp is not None else self.fingerprint(path)
        with self._lock:
            cached = self._digests.get(fp)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while True:
                block = fh.read(_HASH_BLOCK)
                if not block:
                    break
                h.update(block)
        digest = h.hexdigest()
        with self._lock:
            self._digests[fp] = digest
        return digest

    # -- the staged-once guarantee -------------------------------------------
    def ensure(
        self,
        transport,
        host: "HostSpec",
        src: str,
        rel: str,
        workdir: str,
        permanent: bool = False,
    ) -> tuple[int, bool]:
        """Make ``src`` present at ``workdir/rel`` on ``host``; dedup'd.

        Returns ``(bytes_moved, hit)`` — ``(0, True)`` when the content is
        already there (or another thread's in-flight push covered it).
        The caller's reference is retained either way; pair with
        :meth:`release` when the job finishes.  Push failures propagate
        (StagingError/TransportError) with the entry discarded so a later
        job retries.
        """
        fp = self.fingerprint(src)
        size = fp[1]
        key = (host.name, rel)
        while True:
            wait_on: Optional[threading.Event] = None
            verify_against: Optional[_Entry] = None
            entry: Optional[_Entry] = None
            with self._lock:
                removing = self._removing.get(key)
                if removing is not None:
                    wait_on = removing
                else:
                    entry = self._entries.get(key)
                    if entry is None:
                        entry = _Entry(fp, size)
                        entry.refs = 1
                        entry.permanent = permanent
                        self._entries[key] = entry
                        # We own the push; fall through outside the lock.
                    elif not entry.ready:
                        wait_on = entry.event
                    elif entry.src_fp == fp:
                        # Fast-key hit: same file version already staged.
                        entry.refs += 1
                        entry.permanent = entry.permanent or permanent
                        self._cache_hits += 1
                        self._bytes_avoided += size
                        return 0, True
                    else:
                        # Same remote path, different fingerprint: promote
                        # to sha256 outside the lock before deciding.
                        verify_against = entry

            if wait_on is not None:
                wait_on.wait()
                continue  # re-examine: staged, failed, or removed

            if verify_against is not None:
                if self._content_matches(verify_against, fp, src):
                    with self._lock:
                        current = self._entries.get(key)
                        if current is not verify_against or not current.ready:
                            continue  # entry churned under us; retry
                        current.refs += 1
                        current.permanent = current.permanent or permanent
                        self._cache_hits += 1
                        self._bytes_avoided += size
                    return 0, True
                # Genuinely different content for the same remote path:
                # re-stage over it (last write wins, matching the
                # uncached per-job put semantics).
                with self._lock:
                    current = self._entries.get(key)
                    if current is not verify_against:
                        continue
                    entry = current
                    entry.src_fp = fp
                    entry.size = size
                    entry.digest = None
                    entry.ready = False
                    entry.event = threading.Event()
                    entry.refs += 1
                    entry.permanent = entry.permanent or permanent
                # We own the re-push.

            assert entry is not None
            try:
                moved = transport.put(host, src, rel, workdir)
            except Exception:
                with self._lock:
                    current = self._entries.get(key)
                    if current is entry:
                        del self._entries[key]
                entry.event.set()  # wake waiters; they race to retry
                raise
            with self._lock:
                entry.ready = True
                self._files_staged += 1
                self._bytes_moved += int(moved)
            entry.event.set()
            return int(moved), False

    def _content_matches(self, entry: _Entry, fp: tuple, src: str) -> bool:
        """Digest comparison between a staged entry and a new source."""
        if entry.digest is None:
            # The entry's digest is derivable only from its original
            # source file, and only while that file is still the same
            # version it was staged from.
            orig_path = entry.src_fp[0]
            try:
                if self.fingerprint(orig_path) != entry.src_fp:
                    return False  # original changed; staged content unknown
            except StagingError:
                return False
            entry.digest = self.digest_for(orig_path, entry.src_fp)
        return self.digest_for(src, fp) == entry.digest

    # -- refcounted cleanup ---------------------------------------------------
    def retain(self, host: "HostSpec", rel: str) -> None:
        """Add one reference to a staged entry (no-op if not cached)."""
        with self._lock:
            entry = self._entries.get((host.name, rel))
            if entry is not None:
                entry.refs += 1

    def release(self, host: "HostSpec", rels: list[str]) -> list[str]:
        """Drop one reference per relpath; returns rels now safe to remove.

        A returned rel has been evicted from the cache and holds a
        *removal gate*: the caller must physically remove it and then call
        :meth:`removal_done`.  Relpaths with no cache entry (returned
        files, invalidated hosts) are never in the result — the caller
        decides their fate separately.
        """
        to_remove: list[str] = []
        with self._lock:
            for rel in rels:
                key = (host.name, rel)
                entry = self._entries.get(key)
                if entry is None or entry.permanent:
                    continue
                entry.refs -= 1
                if entry.refs <= 0 and entry.ready:
                    del self._entries[key]
                    self._removing[key] = threading.Event()
                    to_remove.append(rel)
        return to_remove

    def removal_done(self, host: "HostSpec", rels: list[str]) -> None:
        """Clear removal gates after the physical remove finished."""
        with self._lock:
            gates = [self._removing.pop((host.name, rel), None) for rel in rels]
        for gate in gates:
            if gate is not None:
                gate.set()

    # -- failure handling -----------------------------------------------------
    def invalidate_host(self, host_name: str) -> None:
        """Forget everything staged to ``host_name`` (transport failure).

        A re-placed job must not trust files on a host that dropped its
        connection; waiters blocked on in-flight pushes are woken and
        re-examine (finding nothing, one becomes the new owner — whose
        push then surfaces the host's true state).
        """
        with self._lock:
            dead = [k for k in self._entries if k[0] == host_name]
            entries = [self._entries.pop(k) for k in dead]
            gates = [
                self._removing.pop(k)
                for k in [k for k in self._removing if k[0] == host_name]
            ]
        for entry in entries:
            entry.event.set()
        for gate in gates:
            gate.set()

    # -- reporting ------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for the run summary / tracer meta."""
        with self._lock:
            return {
                "files_staged": self._files_staged,
                "cache_hits": self._cache_hits,
                "bytes_moved": self._bytes_moved,
                "bytes_staged_avoided": self._bytes_avoided,
            }
