"""Output grouping, ordering (``--keep-order``) and tagging (``--tag``).

GNU Parallel buffers each job's output and emits it as a unit when the job
finishes ("grouping"); with ``-k`` it additionally holds completed output
until all earlier-sequence jobs have emitted.  :class:`OutputSequencer`
implements that hold-and-release logic as pure, backend-agnostic code so
both the real and simulated schedulers share it.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Optional

from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options
from repro.core.template import CommandTemplate

__all__ = ["OutputSequencer", "format_output"]


@lru_cache(maxsize=64)
def _tag_template(tagstring: str) -> CommandTemplate:
    # Parsing the --tagstring template per emitted result was a per-job
    # cost; a run uses one tagstring, so the cache is effectively a
    # parse-once.
    return CommandTemplate(tagstring, implicit_append=False)


def _render_tag(
    args: tuple[str, ...], seq: int, slot: int, options: Options
) -> Optional[str]:
    """The ``--tag``/``--tagstring`` line prefix for one job (None = untagged)."""
    if not options.tag:
        return None
    if options.tagstring:
        return _tag_template(options.tagstring).render(args, seq=seq, slot=slot)
    return "\t".join(args)


def _tag_lines(text: str, tag: str) -> str:
    """Prefix every line of non-empty ``text`` with ``tag`` and a tab.

    Lines end at ``"\\n"`` only, as in GNU Parallel: ``str.splitlines``
    also breaks at ``\\f``, ``\\v``, ``\\x1c``-``\\x1e``, ``\\x85``,
    U+2028 and U+2029, which would tag mid-line.  ASCII text under an
    ASCII tag is tagged as bytes: ``bytes.replace`` plus the encode and
    decode cost about half of ``str.replace`` on a 64 KiB blob.
    """
    head = tag + "\t"
    if text.isascii() and head.isascii():
        mark = head.encode("ascii")
        tagged = mark + text.encode("ascii").replace(b"\n", b"\n" + mark)
        if text.endswith("\n"):
            tagged = tagged[: -len(mark)]
        return tagged.decode("ascii")
    tagged = head + text.replace("\n", "\n" + head)
    return tagged[: -len(head)] if text.endswith("\n") else tagged


def format_output(result: JobResult, options: Options) -> str:
    """Render one job's stdout per the tagging options.

    ``--tag`` prefixes every line with the input arguments (tab-joined);
    ``--tagstring`` uses a replacement-string template instead.
    """
    text = result.stdout
    tag = _render_tag(result.args, result.seq, result.slot, options)
    if tag is None:
        return text
    if not text:
        return ""
    return _tag_lines(text, tag)


class OutputSequencer:
    """Emit job outputs, optionally in input (sequence) order.

    ``emit`` is called once per job with the formatted text.  With
    ``keep_order`` False, emission happens on push; with True, results are
    held until every lower sequence number has been pushed (or declared
    skipped via :meth:`skip`).
    """

    def __init__(
        self,
        emit: Callable[[JobResult, str], None],
        options: Options,
        keep_order: Optional[bool] = None,
    ):
        self._emit = emit
        self._options = options
        self._keep = options.keep_order if keep_order is None else keep_order
        self._next_seq = 1
        self._held: dict[int, JobResult] = {}
        self._skipped: set[int] = set()
        #: Sequence numbers whose stdout already went out incrementally
        #: (``--linebuffer`` streaming); their push suppresses the buffered
        #: re-emission.  Guarded by ``_emit_lock`` — stream callbacks run
        #: on the job's slot thread, pushes on the caller's thread.
        self._streamed: set[int] = set()
        self._emit_lock = threading.Lock()

    def stream_for(self, job: Job, slot: int = 0) -> Optional[Callable[[str], None]]:
        """An incremental stdout emitter for one dispatched job, or None.

        Streaming engages only when it cannot violate ordering guarantees:
        ``--linebuffer`` without ``--keep-order`` (with ``-k`` output stays
        whole-job-buffered, GNU Parallel's ``--group`` approximation).  The
        returned callback receives complete-line text chunks as the job
        produces them — safe to call from the job's slot thread; tags
        are applied per line, and the job's buffered stdout is suppressed
        when its result is eventually pushed.
        """
        if not self._options.linebuffer or self._keep:
            return None
        tag = _render_tag(job.args, job.seq, slot, self._options)
        #: A stand-in result for mid-job emission: emit callbacks receive
        #: it instead of the (not-yet-existing) final JobResult.
        partial = JobResult(
            seq=job.seq, args=job.args, command=job.command,
            exit_code=0, slot=slot, state=JobState.RUNNING,
        )
        seq = job.seq

        def stream(text: str) -> None:
            if not text:
                return
            if tag is not None:
                text = _tag_lines(text, tag)
            with self._emit_lock:
                self._streamed.add(seq)
                self._emit(partial, text)

        return stream

    def skip(self, seq: int) -> None:
        """Declare a sequence number that will never produce output."""
        self._skipped.add(seq)
        if self._keep:
            self._flush()

    def push(self, result: JobResult) -> None:
        """Offer one finished job's result for emission."""
        if not self._keep:
            streamed = result.seq in self._streamed
            if streamed:
                self._streamed.discard(result.seq)
            text = "" if streamed else format_output(result, self._options)
            with self._emit_lock:
                self._emit(result, text)
            return
        self._held[result.seq] = result
        self._flush()

    def _flush(self) -> None:
        while True:
            if self._next_seq in self._skipped:
                self._skipped.discard(self._next_seq)
                self._next_seq += 1
                continue
            result = self._held.pop(self._next_seq, None)
            if result is None:
                return
            self._emit(result, format_output(result, self._options))
            self._next_seq += 1

    @property
    def pending(self) -> int:
        """Number of results held back waiting for earlier sequences."""
        return len(self._held)
