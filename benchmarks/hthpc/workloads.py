"""The six workloads: seeded inputs, the engine call, and the output check.

``generate`` runs in the harness and writes every input into one
directory from ``random.Random(seed)``; the engine only ever sees those
files.  ``drive`` runs in a fresh child interpreter (see ``child.py``),
calls one public entry point (``repro.Parallel`` or
``repro.core.cli.main``) and checks what came out.  The load is closed
loop: the engine's ``-j`` slots are the clients, so a slower engine is
offered less work.
"""

from __future__ import annotations

import base64
import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BLOB_COUNT = 16
BLOB_LINES = 512
BLOB_LINE_CHARS = 127  # + "\n" = 128 bytes a line, 64 KiB a blob
BASEFILE_BYTES = 16 << 20
STAGE_FILE_BYTES = 256 << 10
ROSTER = "2/h1,2/h2"

#: Engine-side slack when checking that ``sleep d`` really slept ``d``:
#: start/end are stamped with ``time.time()`` around the spawn.
SLEEP_SLACK_S = 0.005


def rng_for(seed: int, purpose: str) -> random.Random:
    """One independent stream per purpose, so the blobs of seed 11 are the
    same bytes whether ``cat_output`` or a layer probe asked for them."""
    return random.Random(f"{seed}/{purpose}")


def write_arg_file(path: Path, lines: list[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="ascii")


def read_arg_file(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return fh.read().split("\n")[:-1]


def write_tokens(seed: int, n: int, path: Path) -> None:
    rng = rng_for(seed, "tokens")
    write_arg_file(path, [f"{rng.getrandbits(32):08x}" for _ in range(n)])


def write_blobs(seed: int, directory: Path) -> list[str]:
    """Sixteen 64 KiB printable blobs; returns their paths relative to
    ``directory.parent`` (the child's working directory)."""
    rng = rng_for(seed, "blobs")
    directory.mkdir(exist_ok=True)
    need = BLOB_LINES * BLOB_LINE_CHARS
    names = []
    for i in range(BLOB_COUNT):
        text = base64.b64encode(rng.randbytes(need * 3 // 4 + 3)).decode("ascii")
        lines = [
            text[k : k + BLOB_LINE_CHARS] for k in range(0, need, BLOB_LINE_CHARS)
        ]
        path = directory / f"b{i:02d}.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="ascii")
        names.append(f"{directory.name}/{path.name}")
    return names


def write_random_file(rng: random.Random, path: Path, nbytes: int) -> str:
    data = rng.randbytes(nbytes)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# -- generators (harness side) ------------------------------------------------
def _gen_noop(seed: int, n: int, d: Path, j: int) -> dict:
    write_tokens(seed, n, d / "args.txt")
    return {
        "entry": "parallel",
        "command": None,  # the callable ``noop`` below
        "options": {"jobs": j},
        "args_file": "args.txt",
    }


def _gen_true(extra_flags: list[str]) -> Callable[[int, int, Path, int], dict]:
    def gen(seed: int, n: int, d: Path, j: int) -> dict:
        write_tokens(seed, n, d / "args.txt")
        return {
            "entry": "cli",
            "command": "true # {}",
            "flags": [f"-j{j}", *extra_flags],
            "args_file": "args.txt",
        }

    return gen


def _gen_cat(seed: int, n: int, d: Path, j: int) -> dict:
    blobs = write_blobs(seed, d / "blobs")
    rng = rng_for(seed, "cat-order")
    picks = [rng.randrange(len(blobs)) for _ in range(n)]
    write_arg_file(d / "args.txt", [blobs[i] for i in picks])
    # What --keep-order --tag must emit: every job's blob, in input
    # order, each line prefixed "<arg>\t".
    tagged = [
        "".join(
            f"{name}\t{line}" for line in (d / name).read_text().splitlines(True)
        ).encode("ascii")
        for name in blobs
    ]
    digest = hashlib.sha256()
    for i in picks:
        digest.update(tagged[i])
    return {
        "entry": "parallel",
        "command": "cat {}",
        "options": {"jobs": j, "keep_order": True, "tag": True},
        "args_file": "args.txt",
        "expect_sha256": digest.hexdigest(),
    }


def _gen_sleep(seed: int, n: int, d: Path, j: int) -> dict:
    rng = rng_for(seed, "sleep")
    write_arg_file(d / "args.txt", [f"{rng.uniform(0.2, 0.6):.3f}" for _ in range(n)])
    return {
        "entry": "parallel",
        "command": "sleep {}",
        "options": {"jobs": j, "keep_results": "all"},
        "args_file": "args.txt",
    }


def _gen_stage(seed: int, n: int, d: Path, j: int) -> dict:
    rng = rng_for(seed, "stage")
    (d / "in").mkdir()
    names = [f"in/f{i:04d}.bin" for i in range(n)]
    sums = [write_random_file(rng, d / name, STAGE_FILE_BYTES) for name in names]
    write_random_file(rng_for(seed, "basefile"), d / "base.bin", BASEFILE_BYTES)
    write_arg_file(d / "args.txt", names)
    return {
        "entry": "parallel",
        # The job proves the basefile reached its host, then checksums its
        # own transferred file into the file --return brings back.
        "command": "test -s base.bin && sha256sum {} > {}.sum",
        "options": {
            "sshlogin": [ROSTER],
            # base.bin is asked for per job as well, so every job takes the
            # cache's hit path (against the basefile's entry) once and its
            # miss path (its own file) once.
            "transfer_files": ["{}", "base.bin"],
            "basefiles": ["base.bin"],
            "return_files": ["{}.sum"],
            "cleanup": True,
            "keep_results": "all",
        },
        "args_file": "args.txt",
        "expect_sums": sums,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why this workload exists (copied into BENCHMARK.json).
    why: str
    loads: str
    idles: str
    n_jobs: int
    #: Concurrent slots, i.e. closed-loop clients.
    j: int
    #: Child pinned to one CPU (``os.sched_setaffinity``).
    pinned: bool
    generate: Callable[[int, int, Path, int], dict]
    #: Job count is never shrunk below this by ``--quick``.
    min_jobs: int = 16

    def make_inputs(self, seed: int, n: int, directory: Path) -> dict:
        spec = self.generate(seed, n, directory, self.j)
        spec.update(workload=self.name, n=n, j=self.j, pinned=self.pinned)
        return spec


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "noop_callable",
            "100k no-op callables at -j8 on one CPU: pure scheduler/slots/"
            "callable-backend bookkeeping; spawn, reaper, pool, output and "
            "remote idle. Also the 10^5-job RSS point.",
            "core.scheduler, core.slots, core.inputs, core.backends.callable_backend",
            "spawn, reaper, pool, output, joblog, remote",
            100_000, 8, True, _gen_noop,
        ),
        Workload(
            "true_spawn",
            "2000 x `true # {}` through cli.main at -j8 with a joblog: the "
            "paper's Fig. 3 launch-rate regime on the in-process spawn path; "
            "the dispatcher pool is bypassed.",
            "core.cli, core.inputs, core.template, core.backends.local/spawn/"
            "reaper (exit path), core.joblog (write)",
            "core.backends.pool, core.output (no bytes), remote",
            2_000, 8, False, _gen_true(["--joblog", "joblog.tsv"]),
        ),
        Workload(
            "sharded_spawn",
            "The same 2000 jobs with --dispatchers 2 --rpc-batch auto: the "
            "pool's framing and RPC do most of the coordinator's work; the "
            "in-process launcher idles.",
            "core.backends.pool (frames, RPC, shard workers), core.joblog",
            "core.backends.local in-process launcher, core.output, remote",
            2_000, 8, False,
            _gen_true(["--joblog", "joblog.tsv", "--dispatchers", "2",
                       "--rpc-batch", "auto"]),
        ),
        Workload(
            "cat_output",
            "1000 x `cat` of 64 KiB blobs at -j8 --keep-order --tag into a "
            "sha256 sink: the same reaper moving bytes instead of exits, plus "
            "decode, OutputSequencer and format_output.",
            "core.backends.reaper (read path), core.output, core.template",
            "core.backends.pool, core.joblog, remote",
            1_000, 8, False, _gen_cat,
        ),
        Workload(
            "sleep_fill",
            "960 x `sleep U[0.2,0.6]` at -j128 (the paper's Frontier slot "
            "count): needs a third of spawn capacity, so what shows is slot "
            "refill latency and the cost of 128 parked slot threads.",
            "core.scheduler (refill, worker pool), core.slots",
            "core.output, core.joblog, core.backends.pool, remote",
            960, 128, False, _gen_sleep, min_jobs=256,
        ),
        Workload(
            "stage_mixed",
            "600 jobs over -S 2/h1,2/h2 (LocalTransport), each staging a "
            "unique 256 KiB file (cache miss) beside one shared 16 MiB "
            "basefile (cache hit), with --return and --cleanup.",
            "remote.backend, remote.cache, remote.staging, storage.transfer",
            "core.backends.local, core.backends.pool, core.joblog",
            600, 4, False, _gen_stage,
        ),
    ]
}


# -- drivers (child side) -----------------------------------------------------
def noop(_arg: str) -> None:
    """The no-op job of ``noop_callable``."""


@dataclass
class Outcome:
    """What one engine call produced, as far as the benchmark can see."""

    n_succeeded: int
    first_start: float
    check_error: Optional[str] = None
    #: ``(slot key, start, end)`` per job still in ``RunSummary.results``
    #: (its retention window); None where the entry point returns no summary.
    intervals: Optional[list[tuple[object, float, float]]] = None
    rpc: Optional[dict] = None
    staging: Optional[dict] = None


def _cli_flags(options: dict) -> list[str]:
    return [
        part for key, value in options.items()
        for part in (f"--{key.replace('_', '-')}", str(value))
    ]


def _parse_joblog(path: str) -> list[tuple[int, float, int, int]]:
    """(seq, start, exitval, signal) per record; the benchmark's own
    reader, so the check does not lean on the code under test."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            f = line.split("\t", 8)
            rows.append((int(f[0]), float(f[2]), int(f[6]), int(f[7])))
    return rows


def _drive_cli(spec: dict, variant: dict, clock) -> Outcome:
    from repro.core import cli

    argv = [*spec["flags"], *_cli_flags(variant), *spec["command"].split(),
            "::::", spec["args_file"]]
    with clock:
        rc = cli.main(argv)
    rows = _parse_joblog("joblog.tsv")
    os.remove("joblog.tsv")
    n = spec["n"]
    ok = sum(1 for _seq, _start, exitval, signal in rows if exitval == 0 and signal == 0)
    error = None
    if rc != 0:
        error = f"cli.main returned {rc}"
    elif sorted(r[0] for r in rows) != list(range(1, n + 1)):
        error = f"joblog does not hold exactly seqs 1..{n} ({len(rows)} records)"
    elif ok != n:
        error = f"{n - ok} joblog records with a non-zero exit"
    return Outcome(ok, min((r[1] for r in rows), default=0.0), error)


def _drive_parallel(spec: dict, variant: dict, clock) -> Outcome:
    from repro import Parallel

    n = spec["n"]
    args = read_arg_file(spec["args_file"])
    command = spec["command"] or noop
    digest = hashlib.sha256() if "expect_sha256" in spec else None
    sink = None
    if digest is not None:
        def sink(_result, text: str) -> None:
            digest.update(text.encode("ascii"))

    with clock:
        summary = Parallel(
            command, output=sink, **{**spec["options"], **variant}
        ).run(args)

    error = None
    if summary.n_succeeded != n or summary.n_completed != n:
        error = f"{summary.n_succeeded} of {n} jobs succeeded"
    elif digest is not None and digest.hexdigest() != spec["expect_sha256"]:
        error = "sha256 of the ordered, tagged stream differs from the seed's"
    elif spec["workload"] == "sleep_fill":
        short = sum(
            1 for r in summary.results
            if r.runtime < float(r.args[0]) - SLEEP_SLACK_S
        )
        if short or len(summary.results) != n:
            error = f"{short} sleeps returned early"
    elif "expect_sums" in spec:
        error = _check_staged(args, spec["expect_sums"])
    intervals = [
        ((r.host, r.slot), r.start_time, r.end_time) for r in summary.results
    ]
    return Outcome(
        summary.n_succeeded, summary.first_start, error, intervals,
        dict(summary.rpc), dict(summary.staging),
    )


def _check_staged(names: list[str], sums: list[str]) -> Optional[str]:
    """Returned checksums match; nothing is left on the fake hosts."""
    bad = 0
    for name, want in zip(names, sums):
        path = f"{name}.sum"
        try:
            with open(path, encoding="ascii") as fh:
                got = fh.read()
            os.remove(path)
        except OSError:
            got = ""
        bad += got != f"{want}  {name}\n"
    if bad:
        return f"{bad} returned checksums missing or wrong"
    # LocalTransport roots its fake hosts under TMPDIR (the child's own).
    left = [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(os.environ["TMPDIR"])
        for f in files
    ]
    if left:
        return f"{len(left)} staged files left behind, e.g. {left[0]}"
    return None


def drive(spec: dict, variant: dict, clock) -> Outcome:
    """Run ``spec``'s workload once with ``variant`` option overrides;
    ``clock`` is a context manager entered around the entry-point call."""
    if spec["entry"] == "cli":
        return _drive_cli(spec, variant, clock)
    return _drive_parallel(spec, variant, clock)

