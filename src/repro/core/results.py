"""Result persistence and retention: ``--results`` trees, bounded windows.

GNU Parallel's ``--results mydir`` stores, for each job, files::

    mydir/1/<value of source 1>/[2/<value of source 2>/...]/stdout
    .../stderr
    .../seq

(the numbered level names the input source, the next level its value).
We reproduce that layout so downstream tooling written against GNU
Parallel result trees works unchanged.  Values are sanitized for path
safety (``/`` → ``_``), a divergence GNU Parallel handles with encoding;
documented here for clarity.

This module also owns :func:`retention_buffer`, the in-memory half of
the streaming result plane: at million-job scale (the paper's regime)
the coordinator must not hold every :class:`JobResult` — durable records
belong to the joblog/``--results``/metrics sinks, and the in-memory
window is a bounded deque unless the caller opts into full retention.
"""

from __future__ import annotations

import os
import re
import threading
from collections import deque
from typing import MutableSequence

from repro.core.job import JobResult

__all__ = ["ResultsWriter", "result_dir_for", "retention_buffer"]


def retention_buffer(keep: "int | None") -> MutableSequence[JobResult]:
    """The in-memory results window for one run.

    ``keep=None`` (full retention, ``keep_results="all"``) returns a
    plain list; an integer returns a ``deque(maxlen=keep)`` that evicts
    the oldest result on overflow — coordinator RSS then scales with the
    window, not the job count.  ``RunSummary.record`` counts evictions.
    """
    if keep is None:
        return []
    if keep < 0:
        raise ValueError(f"retention bound must be >= 0, got {keep}")
    return deque(maxlen=keep)

_UNSAFE = re.compile(r"[/\x00]")


def _sanitize(value: str) -> str:
    """Make an input value usable as a single path component."""
    out = _UNSAFE.sub("_", value)
    return out if out not in ("", ".", "..") else f"_{out}_"


def result_dir_for(root: str, args: tuple[str, ...]) -> str:
    """The per-job directory for an argument group under ``root``."""
    parts: list[str] = [root]
    for i, value in enumerate(args, start=1):
        parts.append(str(i))
        parts.append(_sanitize(value))
    return os.path.join(*parts)


class ResultsWriter:
    """Writes the per-job stdout/stderr/seq files.  Thread-safe."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()

    def write(self, result: JobResult) -> str:
        """Persist one job's capture; returns the job's directory."""
        job_dir = result_dir_for(self.root, result.args)
        with self._lock:
            os.makedirs(job_dir, exist_ok=True)
        with open(os.path.join(job_dir, "stdout"), "w", encoding="utf-8") as fh:
            fh.write(result.stdout)
        with open(os.path.join(job_dir, "stderr"), "w", encoding="utf-8") as fh:
            fh.write(result.stderr)
        with open(os.path.join(job_dir, "seq"), "w", encoding="utf-8") as fh:
            fh.write(f"{result.seq}\n")
        return job_dir
