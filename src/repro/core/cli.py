"""``pyparallel`` — a GNU Parallel-compatible command-line front end.

Supports the paper's usage patterns, e.g.::

    pyparallel -j128 ./payload.sh {} :::: inputs.txt
    pyparallel -j8 'HIP_VISIBLE_DEVICES=$(({%} - 1)) celer-sim {}' ::: *.inp.json
    pyparallel -j36 python3 ./darshan_arch.py ::: $(seq 1 12) ::: 0 1 2
    cat files.txt | pyparallel -j32 rsync -R -Ha {} /dest/

Input-source separators: ``:::`` (literal args), ``::::`` (arg files),
``:::+`` (linked literal args).  With no separator, newline-separated
arguments are read from stdin.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.engine import Parallel
from repro.core.inputs import combine, from_file, link
from repro.core.options import DEFAULT_JOBS, Options
from repro.errors import OptionsError, ReproError

__all__ = ["main", "build_arg_parser", "split_command_line"]

SEPARATORS = (":::", "::::", ":::+")


def build_arg_parser() -> argparse.ArgumentParser:
    """The option parser for everything left of the first separator."""
    p = argparse.ArgumentParser(
        prog="pyparallel",
        description="Run commands in parallel (GNU Parallel work-alike).",
    )
    p.add_argument("-j", "--jobs", default=str(DEFAULT_JOBS),
                   help="concurrent jobs: N, 0 (all at once), +N, -N, or N%%")
    p.add_argument("-k", "--keep-order", action="store_true",
                   help="emit output in input order")
    p.add_argument("--halt", default="never",
                   help="halt policy, e.g. now,fail=1 or soon,fail=30%%")
    p.add_argument("--retries", type=int, default=0,
                   help="run failing jobs up to N times in total")
    p.add_argument("--retry-delay", type=float, default=0.0, metavar="SECS",
                   dest="retry_delay",
                   help="base delay before re-running a failed job "
                        "(exponential backoff with jitter)")
    # Chaos testing only: a JSON FaultPlan (inline or a file path) wrapped
    # around the shell backend.  Hidden — not part of the GNU Parallel CLI.
    p.add_argument("--fault-plan", default=None, dest="fault_plan",
                   help=argparse.SUPPRESS)
    p.add_argument("--timeout", default=None,
                   help="per-job timeout: seconds, or N%% of median runtime")
    p.add_argument("--pipe", action="store_true",
                   help="split stdin into blocks fed to jobs' standard input")
    p.add_argument("--block", type=int, default=1 << 20, metavar="BYTES",
                   help="target block size for --pipe (default 1M)")
    p.add_argument("-N", "--max-replace-args", type=int, default=None,
                   metavar="N", help="records per block in --pipe mode")
    p.add_argument("-n", "--max-args", type=int, default=None, metavar="N",
                   help="arguments per job (packed into {1}..{N})")
    p.add_argument("--colsep", default=None, metavar="REGEX",
                   help="split input lines into columns on REGEX ({1}, {2}, ...)")
    p.add_argument("--load", type=float, default=None, dest="max_load",
                   help="do not start jobs while 1-min load average exceeds this")
    p.add_argument("--memfree", type=int, default=None, metavar="BYTES",
                   help="do not start jobs while available memory is below this")
    # Observability (engine extensions): structured run tracing/metrics.
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome/Perfetto trace_event JSON trace of "
                        "the run (open in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="write a newline-JSON metrics log (queue depth, slot "
                        "occupancy, throughput EWMA, ...)")
    p.add_argument("--bar", action="store_true",
                   help="show a progress bar on stderr")
    p.add_argument("-q", "--quote", action="store_true",
                   help="shell-quote substituted input values")
    p.add_argument("--delay", type=float, default=0.0,
                   help="minimum seconds between job starts")
    p.add_argument("--dry-run", action="store_true",
                   help="print commands without running them")
    p.add_argument("--tag", action="store_true",
                   help="prefix output lines with the input arguments")
    p.add_argument("--tagstring", default=None,
                   help="custom tag template (implies --tag)")
    p.add_argument("--shuf", action="store_true",
                   help="shuffle the input order (deterministic seed)")
    p.add_argument("--seed", type=int, default=None, help="seed for --shuf")
    p.add_argument("--joblog", default=None, help="write a GNU Parallel joblog")
    p.add_argument("--resume", action="store_true",
                   help="skip inputs already successful in --joblog")
    p.add_argument("--resume-failed", action="store_true",
                   help="like --resume but re-run previous failures")
    p.add_argument("--results", default=None,
                   help="directory for per-job stdout/stderr trees")
    p.add_argument("-u", "--ungroup", action="store_true",
                   help="stream output unbuffered")
    p.add_argument("--linebuffer", "--lb", action="store_true",
                   dest="linebuffer",
                   help="stream each job's output line-by-line as it is "
                        "produced (lines from different jobs may interleave)")
    # Engine extension: which process-spawn implementation the local
    # backend uses in-process (posix_spawn + pipe reaper vs. Popen's
    # fork_exec); --dispatchers shards always take fork_exec.
    p.add_argument("--spawn-path", default="auto", dest="spawn_path",
                   choices=("auto", "posix", "popen"),
                   help="in-process spawn path: auto or popen (default; "
                        "fork_exec), or posix (posix_spawn, except for "
                        "--wd, --pipe and --linebuffer); --dispatchers "
                        "shards always use fork_exec")
    # Engine extension: shard the local dispatch loop over N spawner
    # worker processes (lifts the single-dispatcher launch-rate ceiling).
    p.add_argument("--dispatchers", default="auto", dest="dispatchers",
                   metavar="auto|N",
                   help="dispatcher shards for the local backend: auto "
                        "(default; one in-process dispatcher) or N worker "
                        "processes fed from one sharded queue; output is "
                        "byte-identical either way")
    # Engine extension: spawn/result frame size for sharded dispatch —
    # the control-plane amortization knob.
    p.add_argument("--rpc-batch", default="auto", dest="rpc_batch",
                   metavar="auto|N",
                   help="records per shard RPC frame with --dispatchers: "
                        "auto (default; adapts to -j) or N >= 1 "
                        "(1 = ship every record immediately)")
    p.add_argument("--link", action="store_true",
                   help="link (zip) input sources instead of crossing them")
    p.add_argument("--wd", "--workdir", dest="workdir", default=None,
                   help="working directory for jobs ('...' = a unique "
                        "per-run directory, removed afterwards)")
    # Remote execution (GNU Parallel --sshlogin family).
    p.add_argument("-S", "--sshlogin", action="append", default=[],
                   dest="sshlogin", metavar="[N/]HOST,...",
                   help="run jobs on these hosts (repeatable; N/host sets "
                        "the host's slot count, ':' is the local machine); "
                        "-j then means slots per host")
    p.add_argument("--sshloginfile", "--slf", default=None, metavar="FILE",
                   dest="sshloginfile",
                   help="read sshlogins from FILE (one per line, # comments)")
    p.add_argument("--transferfile", "--trc", action="append", default=[],
                   dest="transfer_files", metavar="TMPL",
                   help="stage this file to the executing host per job "
                        "(replacement strings supported; repeatable)")
    p.add_argument("--return", action="append", default=[],
                   dest="return_files", metavar="TMPL",
                   help="fetch this file back from the host after the job "
                        "(repeatable)")
    p.add_argument("--cleanup", action="store_true",
                   help="remove transferred and returned files from the "
                        "host after each job")
    p.add_argument("--basefile", action="append", default=[],
                   dest="basefiles", metavar="FILE",
                   help="stage this file once per host per run (repeatable)")
    p.add_argument("--ban-after", type=int, default=3, metavar="N",
                   dest="ban_after",
                   help="ban a host after N consecutive transport failures "
                        "(engine extension; default 3)")
    p.add_argument("--nice", type=int, default=None,
                   help="niceness for spawned jobs")
    p.add_argument("-a", "--arg-file", action="append", default=[],
                   metavar="FILE", help="read arguments from FILE (repeatable)")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="command template (replacement strings supported)")
    return p


def split_command_line(
    argv: Sequence[str],
) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """Split argv into (head, sources).

    ``head`` is everything before the first separator (options + command);
    ``sources`` is a list of (separator, tokens) chunks.
    """
    head: list[str] = []
    sources: list[tuple[str, list[str]]] = []
    current: Optional[list[str]] = None
    for token in argv:
        if token in SEPARATORS:
            current = []
            sources.append((token, current))
        elif current is not None:
            current.append(token)
        else:
            head.append(token)
    return head, sources


def _build_input(
    sources: list[tuple[str, list[str]]],
    arg_files: list[str],
    use_link: bool,
    stdin,
):
    """Materialize the run's input stream from separators/files/stdin."""
    lists: list[list[str]] = []
    linked = use_link
    for sep, tokens in sources:
        if sep == ":::":
            lists.append(tokens)
        elif sep == ":::+":
            linked = True
            lists.append(tokens)
        else:  # '::::'
            for path in tokens:
                lists.append([g[0] for g in from_file(path)])
    for path in arg_files:
        lists.append([g[0] for g in from_file(path)])
    if not lists:
        return (line.rstrip("\n") for line in stdin), False
    if len(lists) == 1:
        return lists[0], linked
    return (link(lists) if linked else combine(lists)), linked


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``pyparallel`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    head, sources = split_command_line(argv)
    parser = build_arg_parser()
    ns = parser.parse_args(head)
    if not ns.command:
        parser.error("no command template given")

    try:
        options = Options(
            jobs=ns.jobs,
            keep_order=ns.keep_order,
            halt=ns.halt,
            retries=ns.retries,
            timeout=ns.timeout,
            delay=ns.delay,
            dry_run=ns.dry_run,
            tag=ns.tag,
            tagstring=ns.tagstring,
            shuf=ns.shuf,
            seed=ns.seed,
            joblog=ns.joblog,
            resume=ns.resume,
            resume_failed=ns.resume_failed,
            results=ns.results,
            ungroup=ns.ungroup,
            link=ns.link,
            workdir=ns.workdir,
            nice=ns.nice,
            spawn_path=ns.spawn_path,
            dispatchers=ns.dispatchers,
            rpc_batch=ns.rpc_batch,
            linebuffer=ns.linebuffer,
            colsep=ns.colsep,
            max_load=ns.max_load,
            memfree=ns.memfree,
            quote=ns.quote,
            max_args=ns.max_args,
            retry_delay=ns.retry_delay,
            trace=ns.trace,
            metrics=ns.metrics,
            sshlogin=ns.sshlogin,
            sshloginfile=ns.sshloginfile,
            transfer_files=ns.transfer_files,
            return_files=ns.return_files,
            cleanup=ns.cleanup,
            basefiles=ns.basefiles,
            ban_after=ns.ban_after,
        )
        if ns.fault_plan and options.remote:
            raise OptionsError(
                "--fault-plan applies to the local backend; combine "
                "FaultyTransport with the remote API instead"
            )
        command = " ".join(ns.command) if len(ns.command) > 1 else ns.command[0]
        progress = None
        if ns.bar:
            from repro.core.progress import ProgressBar

            progress = ProgressBar(sys.stderr)
        backend = None
        if ns.fault_plan:
            from repro.core.backends.local import LocalShellBackend
            from repro.faults import FaultPlan, FaultyBackend

            backend = FaultyBackend(LocalShellBackend(), FaultPlan.load(ns.fault_plan))
        engine = Parallel(command, backend=backend, output=sys.stdout,
                          options=options, progress=progress)
        if ns.pipe:
            summary = engine.pipe(
                sys.stdin, block_size=ns.block, n_records=ns.max_replace_args
            )
        else:
            inputs, _linked = _build_input(sources, ns.arg_file, ns.link, sys.stdin)
            summary = engine.run(inputs)
    except ReproError as exc:
        print(f"pyparallel: error: {exc}", file=sys.stderr)
        return 255
    if summary.halted:
        print(f"pyparallel: {summary.halt_reason}", file=sys.stderr)
    return summary.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
