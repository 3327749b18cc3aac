"""Public engine API: the :class:`Parallel` class and helpers.

Typical uses::

    from repro import Parallel

    # Shell commands, GNU Parallel style
    summary = Parallel("gzip {}", jobs=8).run(files)

    # Multiple input sources (::: a b ::: 1 2)
    summary = Parallel("convert {1} -scale {2}% {1.}_{2}.png").run_sources(
        [files, ["25", "50"]]
    )

    # Python callables ("last-mile parallelizing driver")
    summary = Parallel(process_record, jobs=32).run(records)

    # Streaming queue input (the paper's fetch-process idiom)
    q = QueueSource()
    ...  # a producer thread q.put()s timestamps and finally q.close()s
    summary = Parallel(consume, jobs=8).run(q)
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.backends.base import Backend
from repro.core.backends.callable_backend import CallableBackend
from repro.core.backends.local import LocalShellBackend
from repro.core.inputs import combine, link
from repro.core.job import JobResult, RunSummary
from repro.core.options import Options
from repro.core.scheduler import run_scheduler
from repro.core.template import CommandTemplate

__all__ = ["Parallel", "run_parallel"]

CommandLike = Union[str, Sequence[str], Callable[..., object]]


class Parallel:
    """A configured engine instance, reusable across runs.

    Parameters
    ----------
    command:
        A shell-command template string (GNU Parallel replacement strings
        supported), an argv-list template, or a Python callable.
    backend:
        Override the execution backend; defaults to
        :class:`LocalShellBackend` for command templates and
        :class:`CallableBackend` for callables.
    output:
        A writable text stream for job output (e.g. ``sys.stdout``),
        which gets each job's text verbatim, or a callback
        ``(JobResult, formatted_text) -> None``; None collects results
        silently.  The output sink owns the text: with one, the records
        in ``RunSummary.results`` keep ``stderr``, ``value``, args and
        times but have ``stdout == ""``, so a long run does not hold
        output it already printed.  Without one, ``stdout`` is kept.
    **option_fields:
        Any :class:`~repro.core.options.Options` field (``jobs``,
        ``keep_order``, ``halt``, ``retries``, ...).
    """

    def __init__(
        self,
        command: CommandLike,
        backend: Optional[Backend] = None,
        output: object = None,
        options: Optional[Options] = None,
        progress: Optional[Callable[..., None]] = None,
        **option_fields,
    ):
        if options is not None and option_fields:
            raise TypeError("pass either options= or keyword option fields, not both")
        self.options = options if options is not None else Options(**option_fields)
        self._progress = progress
        self._command = command
        if callable(command) and not isinstance(command, (str, list, tuple)):
            self.template: Optional[CommandTemplate] = None
            if backend == "processes":
                # CPU-bound Python: escape the GIL with worker processes.
                from repro.core.backends.multiprocess import MultiprocessBackend

                backend = MultiprocessBackend(command)
            self._default_backend: Backend | None = backend or CallableBackend(command)
        else:
            self.template = CommandTemplate(command)  # type: ignore[arg-type]
            self._default_backend = backend
        self._output = output

    # -- running -------------------------------------------------------------
    def run(self, inputs: Iterable[object]) -> RunSummary:
        """Run one job per input item (a single input source)."""
        return self._run(inputs)

    def run_sources(self, sources: Sequence[Iterable[object]]) -> RunSummary:
        """Run over multiple input sources (``:::`` ... ``:::`` ...).

        Crossed (cartesian product) by default; zipped when the engine was
        configured with ``link=True``.
        """
        groups = link(sources) if self.options.link else combine(sources)
        return self._run(groups)

    def pipe(
        self,
        source: object,
        block_size: int = 1 << 20,
        n_records: Optional[int] = None,
    ) -> RunSummary:
        """GNU Parallel ``--pipe``: feed blocks of ``source`` to jobs' stdin.

        ``source`` is a string or an iterable of lines.  Blocks are built
        from whole records: ``n_records`` lines per job when given
        (``-N n``), otherwise ~``block_size`` bytes per job (``--block``).
        The command line is *not* substituted with the block; ``{#}`` and
        ``{%}`` still work::

            Parallel("wc -l").pipe(huge_text, block_size=1 << 20)
        """
        import dataclasses

        from repro.core.pipemode import split_blocks, split_records

        if self.template is None:
            raise TypeError("pipe mode needs a command template, not a callable")
        blocks = (
            split_records(source, n_records)
            if n_records is not None
            else split_blocks(source, block_size)
        )
        options = dataclasses.replace(self.options, pipe_mode=True)
        template = CommandTemplate(self._command, implicit_append=False)  # type: ignore[arg-type]
        backend = self._make_backend(template=template)
        emit, emit_silent = self._make_emit()
        return run_scheduler(
            template, blocks, self._scheduler_options(options, backend),
            backend, emit, progress=self._progress, emit_silent=emit_silent,
        )

    def map(self, inputs: Iterable[object]) -> list[object]:
        """Callable-backend convenience: return values in input order.

        Raises :class:`RuntimeError` if any job failed, with the first
        failure's traceback attached.
        """
        options = self.options
        if options.keep_results == "auto":
            # map() hands back every return value, so the default bounded
            # retention window must widen to the whole run; an explicit
            # keep_results is honoured (and truncates, documented).
            import dataclasses

            options = dataclasses.replace(options, keep_results="all")
        summary = self._run(inputs, options=options)
        if summary.n_failed:
            first_bad = next(r for r in summary.sorted_results() if not r.ok)
            raise RuntimeError(
                f"{summary.n_failed} job(s) failed; first failure (seq "
                f"{first_bad.seq}):\n{first_bad.stderr}"
            )
        return [r.value for r in summary.sorted_results()]

    def _run(
        self, source: Iterable[object], options: Optional[Options] = None
    ) -> RunSummary:
        backend = self._make_backend()
        emit, emit_silent = self._make_emit()
        options = options if options is not None else self.options
        return run_scheduler(
            self.template, source, self._scheduler_options(options, backend),
            backend, emit, progress=self._progress, emit_silent=emit_silent,
        )

    # -- plumbing ------------------------------------------------------------
    def _make_backend(self, template: Optional[CommandTemplate] = None) -> Backend:
        if self._default_backend is not None:
            return self._default_backend.renew()
        if self.options.remote:
            from repro.errors import OptionsError
            from repro.remote import LocalTransport, RemoteBackend

            tmpl = template if template is not None else self.template
            if tmpl is None:
                raise OptionsError(
                    "-S/--sshlogin requires a command template, not a callable"
                )
            return RemoteBackend.from_options(
                self.options, transport=LocalTransport(), template=tmpl
            )
        return LocalShellBackend()

    @staticmethod
    def _scheduler_options(options: Options, backend: Backend) -> Options:
        """Remote runs: the scheduler's concurrency is the roster's total.

        ``-j`` means slots *per host* under ``-S`` (GNU Parallel), so the
        dispatch cap becomes the sum of per-host slots, read off the
        backend.
        """
        total = backend.total_slots
        if total is None or total == options.jobs:
            return options
        import dataclasses

        return dataclasses.replace(options, jobs=total)

    def _make_emit(self):
        """The run's sink and whether it must see silent results.

        A callback is called once per job, output or not.  The stream
        writer does nothing for a job with neither stdout nor stderr, so
        the scheduler keeps such results off the caller's thread.
        """
        out = self._output
        if out is None:
            return None, True
        if callable(out) and not hasattr(out, "write"):
            return out, True

        def emit(result: JobResult, text: str) -> None:
            # Verbatim, as GNU Parallel prints it: `parallel -k printf %s
            # ::: a b c` prints `abc`, with no newline added.
            if text:
                out.write(text)
            if result.stderr and out is sys.stdout:
                sys.stderr.write(result.stderr)

        return emit, False


def run_parallel(
    command: CommandLike, inputs: Iterable[object], **option_fields
) -> RunSummary:
    """One-shot convenience: ``run_parallel("echo {}", items, jobs=4)``."""
    return Parallel(command, **option_fields).run(inputs)
