"""``--joblog`` writing and ``--resume`` / ``--resume-failed`` reading.

The log format is byte-compatible with GNU Parallel's::

    Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand

so existing post-processing tooling (and GNU Parallel itself, for
cross-resume) can read our logs and vice versa.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, TextIO

from repro.core.job import JobResult

__all__ = [
    "JOBLOG_HEADER",
    "JoblogWriter",
    "JoblogEntry",
    "JoblogScan",
    "scan_joblog",
    "read_joblog",
    "completed_seqs",
]

JOBLOG_HEADER = "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand"


def _utf8_len(text: str) -> int:
    """Byte length of ``text`` in UTF-8 without encoding ASCII text.

    ``str.isascii`` reads a flag CPython keeps on every string, so the
    common all-ASCII output is counted in O(1) instead of copied once
    more just to be measured.
    """
    if text.isascii():
        return len(text)
    return len(text.encode("utf-8", "replace"))


@dataclass(frozen=True)
class JoblogEntry:
    """One parsed joblog line."""

    seq: int
    host: str
    start_time: float
    runtime: float
    send: int
    receive: int
    exitval: int
    signal: int
    command: str

    @property
    def ok(self) -> bool:
        return self.exitval == 0 and self.signal == 0


class JoblogWriter:
    """Appends joblog lines as jobs finish.  Thread-safe.

    Opens in append mode when resuming so prior history is preserved,
    matching GNU Parallel.

    Writes are batched: records accumulate in memory and reach the file
    (with an ``fh.flush()``) every ``flush_every`` records or
    ``flush_interval`` seconds, whichever comes first — per-record
    ``write+flush`` syscall pairs were a measurable per-job cost.  Each
    flush writes only whole lines, so a crash can tear at most the final
    record mid-``write(2)`` — exactly the damage the tolerant
    :func:`scan_joblog` / torn-tail sealing path already absorbs.
    ``flush_every=1`` restores the old flush-per-record behaviour.
    """

    def __init__(
        self,
        path: str,
        append: bool = False,
        flush_every: int = 32,
        flush_interval: float = 0.5,
    ):
        self.path = path
        self._lock = threading.Lock()
        self._buf: list[str] = []
        self._flush_every = max(1, flush_every)
        self._flush_interval = flush_interval
        self._last_flush = time.monotonic()
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        mode = "a" if append and exists else "w"
        torn_tail = False
        if mode == "a":
            # A run that died mid-write leaves a torn final record with no
            # newline; seal it so new records don't glue onto its tail.
            with open(path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn_tail = fh.read(1) != b"\n"
        self._fh: Optional[TextIO] = open(path, mode, encoding="utf-8")
        if mode == "w":
            self._fh.write(JOBLOG_HEADER + "\n")
            self._fh.flush()
        elif torn_tail:
            self._fh.write("\n")
            self._fh.flush()

    def write(self, result: JobResult) -> None:
        """Record one finished job attempt.

        A job killed by signal ``n`` (``exit_code == -n``) is logged as
        GNU Parallel splits the wait status: Exitval 0, Signal ``n``.
        ``-1`` is the engine's mark for a job that never ran, and stays
        in Exitval; a job killed by SIGHUP has that code too, so it is
        logged the same way (Exitval -1, Signal 0) and the two cannot be
        told apart here.
        """
        code = result.exit_code
        signal = -code if code < -1 else 0
        line = "\t".join(
            [
                str(result.seq),
                result.host or "local",
                f"{result.start_time:.3f}",
                f"{result.runtime:.3f}",
                str(_utf8_len(result.stdout)),
                str(_utf8_len(result.stderr)),
                "0" if signal else str(code),
                str(signal),
                result.command.replace("\t", " ").replace("\n", " "),
            ]
        )
        with self._lock:
            if self._fh is None:
                return
            self._buf.append(line + "\n")
            now = time.monotonic()
            if (
                len(self._buf) >= self._flush_every
                or now - self._last_flush >= self._flush_interval
            ):
                self._flush_locked(now)

    def _flush_locked(self, now: float) -> None:
        if self._buf:
            self._fh.write("".join(self._buf))
            self._buf.clear()
        self._fh.flush()
        self._last_flush = now

    def flush(self) -> None:
        """Force buffered records to the file immediately."""
        with self._lock:
            if self._fh is not None:
                self._flush_locked(time.monotonic())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._flush_locked(time.monotonic())
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JoblogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JoblogScan:
    """Outcome of a tolerant joblog parse.

    A crashed run leaves a torn final record; disk corruption can garbage
    interior ones.  Rather than abort a ``--resume`` over damage that
    affects one line, the scan skips unparseable records and *counts*
    them — the skipped seqs simply re-run.
    """

    entries: list[JoblogEntry] = field(default_factory=list)
    n_malformed: int = 0
    #: 1-based file line numbers of the malformed records.
    malformed_lines: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every record parsed cleanly."""
        return self.n_malformed == 0


def scan_joblog(path: str) -> JoblogScan:
    """Tolerantly parse a joblog; missing file yields an empty scan."""
    scan = JoblogScan()
    if not os.path.exists(path):
        return scan
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("Seq\t"):
                continue
            parts = line.split("\t", 8)
            if len(parts) != 9:
                # Torn record from a crashed run: count it, don't crash.
                scan.n_malformed += 1
                scan.malformed_lines.append(lineno)
                continue
            try:
                scan.entries.append(
                    JoblogEntry(
                        seq=int(parts[0]),
                        host=parts[1],
                        start_time=float(parts[2]),
                        runtime=float(parts[3]),
                        send=int(parts[4]),
                        receive=int(parts[5]),
                        exitval=int(parts[6]),
                        signal=int(parts[7]),
                        command=parts[8],
                    )
                )
            except ValueError:
                scan.n_malformed += 1
                scan.malformed_lines.append(lineno)
    return scan


def read_joblog(path: str) -> list[JoblogEntry]:
    """Parse a joblog file; tolerates a missing file (returns []).

    Malformed records are skipped; use :func:`scan_joblog` to also count
    them.
    """
    return scan_joblog(path).entries


def completed_seqs(path: str, include_failed: bool = False) -> set[int]:
    """Sequence numbers to skip on resume.

    ``include_failed=False`` (``--resume-failed``) skips only successes;
    ``include_failed=True`` (plain ``--resume``) skips everything already
    attempted, success or failure — matching GNU Parallel, where plain
    ``--resume`` does not re-run failed jobs but ``--resume-failed`` does.
    """
    done: set[int] = set()
    for entry in read_joblog(path):
        if entry.ok or include_failed:
            done.add(entry.seq)
    return done
