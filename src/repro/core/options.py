"""Typed engine options mirroring the GNU Parallel CLI flags we support.

The subset implemented is the one the paper's workflows exercise, plus the
bookkeeping flags (joblog/resume/results) any production use needs:

``-j/--jobs`` (counts, ``0``, ``+N``, ``-N`` and ``N%`` forms),
``-k/--keep-order``, ``--halt``, ``--retries``, ``--timeout`` (seconds or
``N%`` of the median runtime), ``--delay``, ``--dry-run``,
``--tag``/``--tagstring``, ``--shuf``, ``--joblog``, ``--resume``,
``--resume-failed``, ``--results``, ``--ungroup``, ``--link``,
``--colsep``, ``--load`` (dispatch throttling on system load),
``--nice`` (applied on POSIX), ``--wd``, ``--linebuffer``, plus the
engine-specific ``--spawn-path`` selecting the local process-spawn path
and ``--dispatchers`` sharding the local dispatch loop over N spawner
worker processes.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.inputs import ceil_div
from repro.errors import OptionsError

__all__ = [
    "HaltSpec",
    "Options",
    "DEFAULT_JOBS",
    "DEFAULT_RPC_BATCH",
    "DEFAULT_KEEP_RESULTS",
    "TMPDIR_WORKDIR",
    "parse_jobs",
    "parse_timeout",
]

#: GNU Parallel's ``-j`` default is one job per CPU core.
DEFAULT_JOBS = os.cpu_count() or 1

#: ``--rpc-batch auto`` frame-size cap: big enough to amortize the pipe
#: wakeup + syscall cost across a dispatch burst, small enough that a
#: partially filled frame never represents meaningful queued latency.
DEFAULT_RPC_BATCH = 32

#: ``keep_results="auto"`` retention bound: generous for interactive use
#: (every small/medium run behaves exactly as full retention), while a
#: million-job run holds a fixed-size window instead of the whole list.
DEFAULT_KEEP_RESULTS = 10_000

#: ``--workdir`` spelling for "a unique per-run directory, auto-removed"
#: — honoured by the local backend and every remote transport.
TMPDIR_WORKDIR = "..."


def parse_jobs(spec: Union[int, str], cores: Optional[int] = None) -> int:
    """Resolve a GNU Parallel ``-j`` specification to a slot count.

    Accepted forms (``man parallel``): an integer, ``0`` ("as many as
    inputs", resolved later by :meth:`Options.effective_jobs`), ``+N``
    (cores + N), ``-N`` (cores − N, min 1), and ``N%`` (percentage of
    cores, rounded up, min 1).
    """
    cores = cores if cores is not None else DEFAULT_JOBS
    if isinstance(spec, int):
        if spec < 0:
            raise OptionsError(f"--jobs must be >= 0, got {spec}")
        return spec
    text = spec.strip()
    try:
        if text.startswith("+") and text[1:].isdigit():
            return cores + int(text[1:])
        if text.startswith("-") and text[1:].isdigit():
            return max(1, cores - int(text[1:]))
        if text.endswith("%") and text[:-1].isdigit():
            pct = int(text[:-1])
            if pct <= 0:
                raise OptionsError(f"--jobs percentage must be > 0: {spec!r}")
            return max(1, ceil_div(cores * pct, 100))
        if not text.isdigit():
            raise ValueError(text)
        value = int(text)
    except ValueError:
        raise OptionsError(f"bad --jobs specification: {spec!r}") from None
    if value < 0:
        raise OptionsError(f"--jobs must be >= 0, got {value}")
    return value


def parse_timeout(spec: Union[float, int, str, None]) -> "tuple[Optional[float], Optional[float]]":
    """Parse ``--timeout``: seconds, or ``N%`` of the median job runtime.

    Returns ``(seconds, percent)`` — exactly one is non-None (or both None
    when no timeout was requested).  The percentage form mirrors GNU
    Parallel's dynamic timeout: kill jobs slower than N% of the median
    runtime observed so far.
    """
    if spec is None:
        return None, None
    if isinstance(spec, (int, float)):
        if spec <= 0:
            raise OptionsError(f"--timeout must be > 0, got {spec}")
        return float(spec), None
    text = spec.strip()
    if text.endswith("%"):
        try:
            pct = float(text[:-1])
        except ValueError:
            raise OptionsError(f"bad --timeout: {spec!r}") from None
        if pct <= 0:
            raise OptionsError(f"--timeout percentage must be > 0: {spec!r}")
        return None, pct / 100.0
    try:
        seconds = float(text)
    except ValueError:
        raise OptionsError(f"bad --timeout: {spec!r}") from None
    if seconds <= 0:
        raise OptionsError(f"--timeout must be > 0, got {seconds}")
    return seconds, None

_HALT_RE = re.compile(
    r"^(?P<when>now|soon)?,?(?P<what>fail|success|done)=(?P<n>\d+%?)$"
)


@dataclass(frozen=True)
class HaltSpec:
    """Parsed ``--halt`` policy.

    ``when``
        ``"never"`` (default), ``"now"`` (kill running jobs) or ``"soon"``
        (let running jobs finish, start no new ones).
    ``what``
        ``"fail"``, ``"success"`` or ``"done"`` — which outcomes count.
    ``threshold``
        Absolute count, or fraction in (0, 1] when ``percent`` is True.
    """

    when: str = "never"
    what: str = "fail"
    threshold: float = 0.0
    percent: bool = False

    @classmethod
    def parse(cls, spec: Optional[str]) -> "HaltSpec":
        """Parse a ``--halt`` string like ``now,fail=1`` or ``soon,fail=30%``."""
        if not spec or spec == "never":
            return cls()
        m = _HALT_RE.match(spec.strip())
        if not m:
            raise OptionsError(
                f"bad --halt spec {spec!r}; expected e.g. 'now,fail=1', "
                "'soon,fail=30%', 'now,success=1'"
            )
        when = m.group("when") or "now"
        what = m.group("what")
        n = m.group("n")
        if n.endswith("%"):
            value = int(n[:-1])
            if not 0 < value <= 100:
                raise OptionsError(f"--halt percentage out of range: {n}")
            return cls(when=when, what=what, threshold=value / 100.0, percent=True)
        value = int(n)
        if value < 1:
            raise OptionsError(f"--halt count must be >= 1: {n}")
        return cls(when=when, what=what, threshold=float(value), percent=False)

    @property
    def active(self) -> bool:
        """True unless the policy is ``never``."""
        return self.when != "never"


@dataclass
class Options:
    """Engine configuration.  Field names follow the long CLI flags."""

    #: Number of concurrent job slots (``-j``).  0 means "as many as
    #: inputs".  Accepts GNU Parallel string forms too: ``"+2"``, ``"-1"``,
    #: ``"50%"`` (resolved against the CPU count in ``__post_init__``).
    jobs: Union[int, str] = DEFAULT_JOBS
    #: Emit job output in input order (``-k`` / ``--keep-order``).
    keep_order: bool = False
    #: Halt policy string, e.g. ``"now,fail=1"``.
    halt: str = "never"
    #: Run failing jobs up to this many times in total (``--retries``, GNU
    #: Parallel semantics).  0 (default) and 1 both mean "run once".
    retries: int = 0
    #: Base delay before re-running a failed job (``--retry-delay``),
    #: seconds.  Grows exponentially per attempt (base, 2×base, 4×base,
    #: ...) with jitter, capped at ``retry_delay_max`` — so a flapping
    #: service is not hammered in lockstep by every retried job.  0
    #: (default) retries immediately.
    retry_delay: float = 0.0
    #: Upper bound on the exponential retry delay, seconds.
    retry_delay_max: float = 60.0
    #: After a ``--halt now`` (or at shutdown), how long to wait for
    #: in-flight workers to come back before abandoning them with
    #: synthetic KILLED results, seconds.
    halt_grace: float = 5.0
    #: Per-job wall-clock timeout (``--timeout``): seconds, or ``"N%"`` of
    #: the median runtime observed so far.  None = no timeout.
    timeout: Union[float, str, None] = None
    #: Minimum delay between job starts, seconds (``--delay``).
    delay: float = 0.0
    #: Print commands without running them (``--dry-run``).
    dry_run: bool = False
    #: Prefix each output line with the job's arguments (``--tag``).
    tag: bool = False
    #: Custom tag template (``--tagstring``); implies ``tag``.
    tagstring: Optional[str] = None
    #: Shuffle input order deterministically (``--shuf``).
    shuf: bool = False
    #: Seed for ``--shuf``.
    seed: Optional[int] = None
    #: Path of the job log (``--joblog``).
    joblog: Optional[str] = None
    #: Skip inputs already completed successfully in the joblog (``--resume``).
    resume: bool = False
    #: Like resume, but also re-run previously failed inputs (``--resume-failed``).
    resume_failed: bool = False
    #: Directory for per-job stdout/stderr capture (``--results``).
    results: Optional[str] = None
    #: Stream output unbuffered instead of grouping per job (``--ungroup``).
    ungroup: bool = False
    #: Treat the input sources as linked rather than crossed (``--link``).
    link: bool = False
    #: Working directory for jobs (``--wd``).
    workdir: Optional[str] = None
    #: In-process spawn path for the local backend (``--spawn-path``):
    #: ``"auto"`` and ``"popen"`` (``fork_exec``, Popen's primitive,
    #: which releases the GIL across vfork→exec where ``posix_spawn``
    #: holds it), ``"posix"`` (posix_spawn + reaper; ``--wd``,
    #: ``--pipe`` and ``--linebuffer`` still take ``fork_exec``).
    #: ``--dispatchers`` shards always take ``fork_exec``.
    spawn_path: str = "auto"
    #: Dispatcher shard count for the local backend (``--dispatchers``):
    #: ``"auto"`` (single in-process dispatcher — sharding is opt-in) or
    #: N >= 1 spawner worker processes fed from one sharded queue.  N > 1
    #: lifts the single-dispatcher launch-rate ceiling (paper Fig. 3) by
    #: running N posix_spawn+reaper loops in separate kernel task
    #: contexts; ordering/joblog/halt merge stays centralized, so output
    #: is byte-identical to ``--dispatchers 1``.
    dispatchers: Union[int, str] = "auto"
    #: Spawn/result RPC frame size for sharded dispatch (``--rpc-batch``):
    #: ``"auto"`` (min(DEFAULT_RPC_BATCH, -j) — frames larger than the
    #: in-flight window can never fill) or N >= 1 records per frame.
    #: 1 disables coalescing: every record ships immediately, the PR6
    #: per-message shape.  Only meaningful with ``--dispatchers`` > 1.
    rpc_batch: Union[int, str] = "auto"
    #: In-memory result retention (API only): ``"auto"``
    #: (bounded at DEFAULT_KEEP_RESULTS), ``"all"`` (unbounded — the
    #: pre-PR10 behaviour), or N >= 0 results kept.  Aggregates on
    #: :class:`~repro.core.job.RunSummary` (counts, exit codes, launch
    #: rate) are exact regardless; only the ``results`` window is capped.
    keep_results: Union[int, str] = "auto"
    #: Stream each job's stdout line-by-line as it is produced instead of
    #: buffering until the job finishes (``--linebuffer``).  Lines from
    #: different jobs may interleave, but never within a line.  With
    #: ``--keep-order`` or ``--pipe`` output stays whole-job-buffered (a
    #: documented approximation; ``--pipe`` jobs need ``communicate()``
    #: to feed their stdin).
    linebuffer: bool = False
    #: POSIX niceness applied to spawned processes (``--nice``).
    nice: Optional[int] = None
    #: Extra environment variables exported to every job (``--env`` analog).
    env: dict[str, str] = field(default_factory=dict)
    #: Split each input line into multiple arguments on this regex
    #: (``--colsep``); the pieces populate ``{1}``, ``{2}``, ...
    colsep: Optional[str] = None
    #: Do not start new jobs while the 1-minute load average exceeds this
    #: (``--load``).  None = no throttling.
    max_load: Optional[float] = None
    #: Load probe used by ``--load`` (returns the 1-minute load average);
    #: injectable for tests.  None = ``os.getloadavg``.
    load_probe: Optional[object] = field(default=None, repr=False)
    #: Do not start new jobs while available memory is below this many
    #: bytes (``--memfree``).  None = no memory throttling.
    memfree: Optional[int] = None
    #: Memory probe used by ``--memfree`` (returns available bytes);
    #: injectable for tests.  None = read /proc/meminfo MemAvailable.
    memfree_probe: Optional[object] = field(default=None, repr=False)
    #: ``--pipe`` mode: each input "argument" is a block of text delivered
    #: on the job's stdin instead of substituted into the command line.
    pipe_mode: bool = False
    #: Shell-quote substituted values (``-q``/``--quote``): inputs with
    #: spaces or shell metacharacters cannot break the command.
    quote: bool = False
    #: Pack this many consecutive arguments into each job (``-n``); the
    #: packed values fill ``{1}``..``{n}`` (and ``{}`` space-joined).
    max_args: Optional[int] = None
    #: Write a Chrome/Perfetto ``trace_event`` JSON trace of the run to
    #: this path (``--trace``; engine extension).  None = no trace.
    trace: Optional[str] = None
    #: Write a newline-JSON metrics log (periodic gauge samples) to this
    #: path (``--metrics``; engine extension).  None = no metrics log.
    metrics: Optional[str] = None
    #: Pre-built :class:`repro.obs.RunTracer` to observe the run with;
    #: injectable for tests and multi-instance drivers.  When None, the
    #: scheduler builds one iff ``trace``/``metrics`` ask for output
    #: (an injected tracer takes precedence — the paths are ignored).
    tracer: Optional[object] = field(default=None, repr=False)
    #: Remote host specs (``-S``/``--sshlogin``): each entry is a
    #: comma-separated list of ``[N/]host`` sshlogins; ``:`` = localhost.
    #: Non-empty makes the run remote.  ``-j`` then means slots *per host*.
    sshlogin: list[str] = field(default_factory=list)
    #: File of sshlogins, one per line, ``#`` comments (``--sshloginfile``).
    sshloginfile: Optional[str] = None
    #: Per-job file(s) to stage to the executing host (``--transferfile``);
    #: each entry is a replacement-string template rendered per job.
    transfer_files: list[str] = field(default_factory=list)
    #: Per-job file(s) to fetch back after the job (``--return``).
    return_files: list[str] = field(default_factory=list)
    #: Remove transferred/returned files from the host afterwards
    #: (``--cleanup``).
    cleanup: bool = False
    #: Files staged once per host per run, never per job (``--basefile``).
    basefiles: list[str] = field(default_factory=list)
    #: Ban a host after this many *consecutive* transport failures; its
    #: in-flight jobs re-place onto surviving hosts (engine extension).
    ban_after: int = 3

    # Parsed halt policy (computed in __post_init__).
    halt_spec: HaltSpec = field(init=False, repr=False)
    #: Resolved timeout forms (seconds, or fraction-of-median).
    timeout_s: Optional[float] = field(init=False, repr=False)
    timeout_pct: Optional[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.jobs = parse_jobs(self.jobs)
        if self.retries < 0:
            raise OptionsError(f"--retries must be >= 0, got {self.retries}")
        self.timeout_s, self.timeout_pct = parse_timeout(self.timeout)
        if self.max_load is not None and self.max_load <= 0:
            raise OptionsError(f"--load must be > 0, got {self.max_load}")
        if self.memfree is not None and self.memfree <= 0:
            raise OptionsError(f"--memfree must be > 0, got {self.memfree}")
        if self.max_args is not None and self.max_args < 1:
            raise OptionsError(f"-n/--max-args must be >= 1, got {self.max_args}")
        if self.colsep is not None:
            try:
                re.compile(self.colsep)
            except re.error as exc:
                raise OptionsError(f"bad --colsep regex {self.colsep!r}: {exc}") from None
        if self.delay < 0:
            raise OptionsError(f"--delay must be >= 0, got {self.delay}")
        if self.retry_delay < 0:
            raise OptionsError(f"--retry-delay must be >= 0, got {self.retry_delay}")
        if self.retry_delay_max <= 0:
            raise OptionsError(
                f"retry_delay_max must be > 0, got {self.retry_delay_max}"
            )
        if self.halt_grace < 0:
            raise OptionsError(f"halt_grace must be >= 0, got {self.halt_grace}")
        if self.ban_after < 1:
            raise OptionsError(f"ban_after must be >= 1, got {self.ban_after}")
        if self.spawn_path not in ("auto", "posix", "popen"):
            raise OptionsError(
                f"--spawn-path must be auto, posix or popen, got {self.spawn_path!r}"
            )
        if isinstance(self.dispatchers, str):
            text = self.dispatchers.strip()
            if text != "auto":
                if not text.isdigit():
                    raise OptionsError(
                        f"--dispatchers must be auto or a positive integer, "
                        f"got {self.dispatchers!r}"
                    )
                self.dispatchers = int(text)
        if isinstance(self.dispatchers, int) and self.dispatchers < 1:
            raise OptionsError(
                f"--dispatchers must be >= 1, got {self.dispatchers}"
            )
        if isinstance(self.rpc_batch, str):
            text = self.rpc_batch.strip()
            if text != "auto":
                if not text.isdigit():
                    raise OptionsError(
                        f"--rpc-batch must be auto or a positive integer, "
                        f"got {self.rpc_batch!r}"
                    )
                self.rpc_batch = int(text)
        if isinstance(self.rpc_batch, int) and self.rpc_batch < 1:
            raise OptionsError(
                f"--rpc-batch must be >= 1, got {self.rpc_batch}"
            )
        if isinstance(self.keep_results, str):
            text = self.keep_results.strip()
            if text not in ("auto", "all"):
                if not text.isdigit():
                    raise OptionsError(
                        f"keep_results must be auto, all or an integer "
                        f">= 0, got {self.keep_results!r}"
                    )
                self.keep_results = int(text)
        if isinstance(self.keep_results, int) and self.keep_results < 0:
            raise OptionsError(
                f"keep_results must be >= 0, got {self.keep_results}"
            )
        if not self.remote:
            staging_flags = [
                name
                for name, value in (
                    ("--transferfile", self.transfer_files),
                    ("--return", self.return_files),
                    ("--cleanup", self.cleanup),
                    ("--basefile", self.basefiles),
                )
                if value
            ]
            if staging_flags:
                raise OptionsError(
                    f"{'/'.join(staging_flags)} require(s) -S/--sshlogin "
                    "or --sshloginfile"
                )
        if self.resume_failed:
            # --resume-failed implies --resume bookkeeping.
            self.resume = True
        if (self.resume or self.resume_failed) and not self.joblog:
            raise OptionsError("--resume/--resume-failed require --joblog")
        if self.tagstring is not None:
            self.tag = True
        self.halt_spec = HaltSpec.parse(self.halt)

    @property
    def remote(self) -> bool:
        """True when a host roster was given: dispatch goes multi-host."""
        return bool(self.sshlogin or self.sshloginfile)

    def effective_dispatchers(self) -> int:
        """Resolve ``--dispatchers`` to a shard count.

        ``"auto"`` resolves to 1: sharding adds worker processes and a
        pipe round-trip per job, which only pays when the workload is
        launch-rate-bound with spare cores (compare the ``hthpc``
        benchmark's ``efficiency`` on ``true_spawn`` and
        ``sharded_spawn``) — an explicit choice, not a default tax on
        every short run.
        """
        if self.dispatchers == "auto":
            return 1
        return int(self.dispatchers)

    def effective_rpc_batch(self) -> int:
        """Resolve ``--rpc-batch`` to a frame size.

        ``"auto"`` adapts to the slot count: with ``-j`` jobs in flight
        at most ``-j`` spawn records can ever be outstanding, so a larger
        frame would only ever ship partially filled (after the idle
        deadline) and buys nothing.
        """
        if self.rpc_batch == "auto":
            jobs = self.jobs if isinstance(self.jobs, int) and self.jobs > 0 else DEFAULT_RPC_BATCH
            return max(1, min(DEFAULT_RPC_BATCH, jobs))
        return int(self.rpc_batch)

    def effective_keep_results(self) -> Optional[int]:
        """Resolve ``keep_results``: None = keep everything, else a cap."""
        if self.keep_results == "all":
            return None
        if self.keep_results == "auto":
            return DEFAULT_KEEP_RESULTS
        return int(self.keep_results)

    def effective_jobs(self, n_inputs: Optional[int] = None) -> int:
        """Resolve ``jobs=0`` ("run everything at once") against input count."""
        if self.jobs > 0:
            return self.jobs
        if n_inputs is None:
            raise OptionsError("jobs=0 requires a finite, known input count")
        return max(1, n_inputs)
