"""Real-filesystem transfer primitives for remote staging.

The simulated half of :mod:`repro.storage` models rsync *costs*
(:mod:`repro.storage.rsync`); this module is the executable counterpart
the remote-dispatch layer stands on: rsync-able path normalization and
copy/remove helpers with the error split the backend needs —
:class:`~repro.errors.StagingError` for job-local problems (missing
source) vs ``OSError`` pass-through for host-side ones.

Path semantics follow GNU Parallel's ``--transferfile``/``--return``:
a transferred file lands *relative to the remote workdir* with its
leading ``/`` (and any ``./``) stripped, mirroring ``rsync --relative``;
``..`` components are rejected so a crafted input line cannot stage
outside the workdir.

Every copy is one ``shutil.copy2``: on Linux one kernel ``sendfile``
that releases the GIL and holds no user-space buffer.  Parallel data
motion comes from many copies over different files (``-j`` slots,
hosts), the shape of the paper's 256 ``rsync`` processes, never from
splitting one file inside one process.
"""

from __future__ import annotations

import os
import shutil
import stat

from repro.errors import StagingError

__all__ = ["remote_relpath", "copy_file", "remove_files"]


def remote_relpath(path: str) -> str:
    """Normalize a transfer path to its workdir-relative remote location.

    ``/data/a.txt`` → ``data/a.txt``; ``./in/x`` → ``in/x``; a path
    escaping the workdir (``../x``) raises :class:`StagingError`.
    """
    p = path
    while p.startswith("./"):
        p = p[2:]
    p = p.lstrip("/")
    if not p:
        raise StagingError(f"transfer path {path!r} names no file")
    norm = os.path.normpath(p)
    if norm == ".." or norm.startswith(".." + os.sep):
        raise StagingError(f"transfer path {path!r} escapes the workdir")
    return norm


def copy_file(src: str, dest: str) -> int:
    """Copy ``src`` to ``dest`` (parents created); returns bytes copied.

    A missing or non-regular source is a :class:`StagingError` (the
    job's fault, not the host's); copying a file onto itself (a ``:``
    localhost "transfer") is a no-op.  Mode and mtime follow ``copy2``.

    The byte count is the *source* size at copy time: the destination may
    already be growing (a job appending to its staged input) by the time
    a post-copy ``getsize`` would run.
    """
    try:
        st = os.stat(src)
    except OSError:
        raise StagingError(f"transfer source missing: {src!r}") from None
    if not stat.S_ISREG(st.st_mode):
        raise StagingError(f"transfer source is not a file: {src!r}")
    parent = os.path.dirname(dest)
    if parent:
        os.makedirs(parent, exist_ok=True)
    try:
        shutil.copy2(src, dest)
    except shutil.SameFileError:
        pass
    return st.st_size


def remove_files(paths: list[str], root: str | None = None) -> int:
    """Best-effort removal (``--cleanup``); returns how many were removed.

    Missing files are fine — a job may legitimately have consumed its own
    staged input.  Emptied parent directories strictly under ``root`` are
    pruned so repeated staged runs don't accrete empty trees; the
    containment check is component-wise (``root=/a/b`` never prunes
    inside a sibling ``/a/b2``).
    """
    removed = 0
    root_abs = os.path.abspath(root) if root is not None else None
    for path in paths:
        try:
            os.remove(path)
            removed += 1
        except OSError:
            continue
        if root_abs is None:
            continue
        parent = os.path.abspath(os.path.dirname(path))
        while parent != root_abs and parent.startswith(root_abs + os.sep):
            try:
                os.rmdir(parent)
            except OSError:
                break
            parent = os.path.dirname(parent)
    return removed
