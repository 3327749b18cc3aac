"""Spawn-path parity: posix and popen must be byte-for-byte identical.

In-process jobs and the dispatcher shards run on the fork_exec ("popen")
leg by default; the posix_spawn + pipe reaper leg (see
``repro.core.backends.spawn``) serves only ``--spawn-path posix``.  Every user-visible behaviour (``--keep-order``
ordering, ``--tag`` prefixes, exit codes, stderr routing, timeout kills)
must match between the two exactly.  These tests run the same workload
through both paths and diff the collected output.

The cross-shard matrix at the bottom extends the same contract to
``--dispatchers N``: sharding the dispatch loop over worker processes is
also a pure throughput device, so every (dispatchers, spawn-path) cell
must reproduce the single-dispatcher byte stream exactly — including
``--joblog`` rows, ``--tag`` prefixes and ``--halt`` outcomes.
"""

import pytest

from repro import Parallel
from repro.core.backends import local
from repro.core.backends.local import LocalShellBackend
from repro.core.backends.spawn import spawn_supported
from repro.core.job import JobState
from repro.core.joblog import read_joblog
from repro.core.options import Options

pytestmark = pytest.mark.skipif(
    not spawn_supported(), reason="posix_spawn unavailable on this platform"
)

PATHS = ("posix", "popen")
#: Shard counts for the cross-shard parity matrix (1 = the baseline
#: in-process dispatcher every other cell must match byte-for-byte).
DISPATCHERS = (1, 2, 4)
#: The pool runs on every path; its cells are diffed against the
#: in-process leg the path pins ("posix": the reaper leg, else Popen).
MATRIX_PATHS = ("auto", "popen", "posix")


def run_collect(command, inputs, **option_fields):
    """Run and return (summary, concatenated formatted output)."""
    chunks = []
    engine = Parallel(
        command, output=lambda _res, text: chunks.append(text), **option_fields
    )
    summary = engine.run(inputs)
    return summary, "".join(chunks)


# ----------------------------------------------------------------- routing
def test_spawn_path_routing_matrix():
    backend = LocalShellBackend()
    try:
        backend.prepare_run(Options(spawn_path="posix"))
        assert backend.spawn_path == "posix"
        backend.prepare_run(Options(spawn_path="popen"))
        assert backend.spawn_path == "popen"
        # auto runs in-process jobs on Popen, which releases the GIL
        # across vfork→exec (posix_spawn holds it).
        backend.prepare_run(Options(spawn_path="auto"))
        assert backend.spawn_path == "popen"
        # --linebuffer streams from the slot thread, and --wd needs a
        # child cwd, which posix_spawn cannot set: Popen even when
        # posix is pinned.
        for flags in ({"linebuffer": True}, {"workdir": "."}):
            for mode in ("auto", "posix"):
                backend.prepare_run(Options(spawn_path=mode, **flags))
                assert backend.spawn_path == "popen", (mode, flags)
    finally:
        backend.close()


def test_only_posix_leg_users_probe_posix_spawn(monkeypatch):
    # spawn_supported() makes a real spawn; only --spawn-path posix can
    # use its answer, so no other run may pay for it — a sharded one
    # included, since the shard workers launch through fork_exec.
    def probe():
        raise AssertionError("spawn_supported() was called")

    monkeypatch.setattr(local, "spawn_supported", probe)
    for command, inputs, flags in [
        ("echo {}", ["a", "b"], {}),
        ("echo {}", ["a", "b"], {"workdir": "."}),
        ("cat", ["a\n", "b\n"], {"pipe_mode": True}),
        ("echo {}", ["a", "b"], {"linebuffer": True}),
        ("echo {}", ["a", "b"], {"dispatchers": 2}),
        ("echo {}", ["a", "b"], {"dispatchers": 2, "workdir": "."}),
    ]:
        summary, text = run_collect(command, inputs, jobs=2, keep_order=True,
                                    **flags)
        assert summary.ok and text == "a\nb\n", flags


# ------------------------------------------------------------ output parity
@pytest.mark.parametrize(
    "flags",
    [
        {"keep_order": True},
        {"keep_order": True, "tag": True},
        {"keep_order": True, "tagstring": "[{#}]"},
    ],
    ids=["keep-order", "keep-order+tag", "keep-order+tagstring"],
)
def test_formatted_output_identical_across_paths(flags):
    outputs = {}
    for path in PATHS:
        summary, text = run_collect(
            "printf '%s\\n%s\\n' one-{} two-{}", range(1, 9),
            jobs=4, spawn_path=path, **flags,
        )
        assert summary.ok
        outputs[path] = text
    assert outputs["posix"] == outputs["popen"]
    assert "one-3" in outputs["posix"] and "two-8" in outputs["posix"]


def test_tag_without_keep_order_same_line_set():
    # Completion order is scheduling-dependent, so compare the sorted
    # line multiset instead of the byte stream.
    lines = {}
    for path in PATHS:
        summary, text = run_collect(
            "echo {}", range(1, 13), jobs=4, tag=True, spawn_path=path
        )
        assert summary.ok
        lines[path] = sorted(text.splitlines())
    assert lines["posix"] == lines["popen"]


#: Every way an in-process --linebuffer run can be set up, each plain and
#: with --tag; the bare ids ("plain", "tag") are the default options.
LINEBUFFER_SETUPS = {
    "": {},
    "wd": {"workdir": "."},
    "popen": {"spawn_path": "popen"},
    "posix": {"spawn_path": "posix"},
}


@pytest.mark.parametrize(
    "flags",
    [{**setup, **tag} for setup in LINEBUFFER_SETUPS.values()
     for tag in ({}, {"tag": True})],
    ids=[f"{name}+{kind}" if name else kind for name in LINEBUFFER_SETUPS
         for kind in ("plain", "tag")],
)
def test_linebuffer_output_identical_to_buffered(flags):
    # CRLF output: the streamed chunks must get the same universal-newline
    # step as whole-job decoding.  -j1 keeps completion order fixed.
    outputs = {}
    for linebuffer in (False, True):
        states, chunks = [], []

        def emit(res, text):
            states.append(res.state)
            chunks.append(text)

        summary = Parallel(
            "printf 'a-%s\\r\\nb\\rc-%s\\r\\n' {} {}", output=emit, jobs=1,
            linebuffer=linebuffer, **flags,
        ).run(range(1, 4))
        assert summary.ok
        outputs[linebuffer] = "".join(chunks)
        # The streamed run really emitted mid-job chunks.
        assert (JobState.RUNNING in states) is linebuffer
    assert outputs[True] == outputs[False]
    assert "a-2\n" in outputs[False] and "\r" not in outputs[False]


def test_pipe_linebuffer_streams_the_fed_jobs_output():
    # --pipe jobs are fed on the same poll loop that streams stdout, so
    # --linebuffer reaches them too, with the same universal newlines.
    outputs = {}
    for linebuffer in (False, True):
        states, chunks = [], []

        def emit(res, text):
            states.append(res.state)
            chunks.append(text)

        summary = Parallel("cat", output=emit, jobs=1, pipe_mode=True,
                           linebuffer=linebuffer).run(["a-1\r\nb\r", "c-2\r\n"])
        assert summary.ok
        outputs[linebuffer] = "".join(chunks)
        assert (JobState.RUNNING in states) is linebuffer
    assert outputs[True] == outputs[False] == "a-1\nb\nc-2\n"


def test_exit_codes_and_stderr_identical_across_paths():
    per_path = {}
    for path in PATHS:
        rows = []
        engine = Parallel(
            "sh -c 'echo out-{}; echo err-{} >&2; exit $(( {} % 2 ))'",
            output=lambda res, text: rows.append(
                (res.seq, res.exit_code, text, res.stderr)
            ),
            jobs=3, keep_order=True, spawn_path=path,
        )
        summary = engine.run(range(1, 7))
        assert summary.n_failed == 3  # odd seqs exit 1
        per_path[path] = rows
    assert per_path["posix"] == per_path["popen"]


def test_timeout_kill_identical_across_paths():
    states = {}
    for path in PATHS:
        summary, _text = run_collect(
            "sh -c 'sleep 5; echo late-{}'", [1, 2],
            jobs=2, timeout=0.2, spawn_path=path,
        )
        assert not summary.ok
        states[path] = sorted(
            (r.seq, r.state.value, r.stdout) for r in summary.results
        )
    assert states["posix"] == states["popen"]


# ------------------------------------------------------- cross-shard matrix
#: A workload exercising stdout, stderr and mixed exit codes at once.
MIXED_CMD = "sh -c 'echo out-{}; echo err-{} >&2; exit $(( {} % 2 ))'"


def _stable_joblog_rows(path):
    """Joblog reduced to its run-invariant columns, in seq order.

    Start times and runtimes are wall-clock (volatile across runs by
    definition); seq, exit status, signal and the rendered command are
    the contract the matrix pins.
    """
    return sorted(
        (e.seq, e.exitval, e.signal, e.command) for e in read_joblog(path)
    )


def _matrix_cell(n_disp, path, tmp_path, flags):
    """One (dispatchers, spawn-path) run; returns its comparable outcome."""
    joblog = tmp_path / f"d{n_disp}-{path}.log"
    rows = []
    engine = Parallel(
        MIXED_CMD,
        output=lambda res, text: rows.append(
            (res.seq, res.exit_code, text, res.stderr)
        ),
        jobs=4, spawn_path=path, dispatchers=n_disp,
        joblog=str(joblog), **flags,
    )
    summary = engine.run(range(1, 9))
    return {
        "rows": rows,
        "n_failed": summary.n_failed,
        "joblog": _stable_joblog_rows(str(joblog)),
    }


@pytest.mark.parametrize("path", MATRIX_PATHS)
@pytest.mark.parametrize(
    "flags",
    [
        {"keep_order": True},
        {"keep_order": True, "tag": True},
        {"keep_order": True, "tagstring": "[{#}]"},
    ],
    ids=["keep-order", "keep-order+tag", "keep-order+tagstring"],
)
def test_dispatcher_matrix_byte_identical(tmp_path, path, flags):
    baseline = _matrix_cell(1, path, tmp_path, flags)
    assert baseline["n_failed"] == 4  # odd seqs exit 1
    for n_disp in DISPATCHERS[1:]:
        cell = _matrix_cell(n_disp, path, tmp_path, flags)
        assert cell["rows"] == baseline["rows"], (
            f"--dispatchers {n_disp} --spawn-path {path} diverged"
        )
        assert cell["n_failed"] == baseline["n_failed"]
        assert cell["joblog"] == baseline["joblog"]


@pytest.mark.parametrize("n_disp", DISPATCHERS)
@pytest.mark.parametrize("path", MATRIX_PATHS)
def test_dispatcher_matrix_halt_now_fail(tmp_path, n_disp, path):
    # Serial submission makes --halt now,fail=1 deterministic: the first
    # failure (seq 2) halts before seq 3 dispatches, in every cell.
    joblog = tmp_path / f"halt-{n_disp}-{path}.log"
    rows = []
    engine = Parallel(
        "sh -c 'exit $(( {} == 2 ))'",
        output=lambda res, text: rows.append((res.seq, res.exit_code, text)),
        jobs=1, keep_order=True, halt="now,fail=1",
        spawn_path=path, dispatchers=n_disp, joblog=str(joblog),
    )
    summary = engine.run(range(1, 7))
    assert not summary.ok
    assert summary.n_failed == 1
    assert rows == [(1, 0, ""), (2, 1, "")]
    assert _stable_joblog_rows(str(joblog)) == [
        (1, 0, 0, "sh -c 'exit $(( 1 == 2 ))'"),
        (2, 1, 0, "sh -c 'exit $(( 2 == 2 ))'"),
    ]


#: Frame sizes for the rpc-batch parity matrix.  1 = per-job messages
#: (the pre-batching wire shape every other cell must reproduce).
RPC_BATCHES = (1, 8, 64)


@pytest.mark.parametrize("rpc_batch", RPC_BATCHES)
def test_rpc_batch_matrix_byte_identical(tmp_path, rpc_batch):
    """Frame batching is a pure wire optimisation: every (rpc_batch,
    dispatchers) cell must reproduce the unbatched single-dispatcher
    byte stream — output rows, failure counts and sealed joblog alike.
    """
    flags = {"keep_order": True, "tag": True}
    baseline = _matrix_cell(1, "auto", tmp_path, {**flags, "rpc_batch": 1})
    assert baseline["n_failed"] == 4
    for n_disp in DISPATCHERS:
        cell = _matrix_cell(
            n_disp, "auto", tmp_path, {**flags, "rpc_batch": rpc_batch}
        )
        assert cell["rows"] == baseline["rows"], (
            f"--rpc-batch {rpc_batch} --dispatchers {n_disp} diverged"
        )
        assert cell["n_failed"] == baseline["n_failed"]
        assert cell["joblog"] == baseline["joblog"]


def test_rpc_batch_auto_matches_explicit(tmp_path):
    # The "auto" frame-size heuristic must be invisible in the output.
    flags = {"keep_order": True}
    auto = _matrix_cell(2, "auto", tmp_path, {**flags, "rpc_batch": "auto"})
    explicit = _matrix_cell(2, "auto", tmp_path, {**flags, "rpc_batch": 8})
    assert auto["rows"] == explicit["rows"]
    assert auto["joblog"] == explicit["joblog"]


def test_dispatchers_resolution_matrix():
    backend = LocalShellBackend()
    try:
        # auto still builds the pool; jobs a dead pool hands back run on
        # the in-process Popen leg, or on posix when that is pinned.
        backend.prepare_run(Options(dispatchers=2))
        assert backend.dispatchers == 2
        assert backend.spawn_path == "popen"
        backend.prepare_run(Options(dispatchers=2, spawn_path="posix"))
        assert backend.dispatchers == 2
        assert backend.spawn_path == "posix"
        # The workers run whole jobs through run_command's fork_exec
        # leg, in the run's --wd directory: popen and --wd keep the pool.
        for sharded in (Options(dispatchers=2, spawn_path="popen"),
                        Options(dispatchers=2, workdir=".")):
            backend.prepare_run(sharded)
            assert backend.dispatchers == 2
            assert backend.spawn_path == "popen"
        # auto = one in-process dispatcher (sharding is opt-in)...
        backend.prepare_run(Options(dispatchers="auto"))
        assert backend.dispatchers == 1
        # ...and jobs that need their slot thread resolve back to one.
        for unsupported in (
            Options(dispatchers=2, linebuffer=True),
            Options(dispatchers=2, pipe_mode=True),
        ):
            backend.prepare_run(unsupported)
            assert backend.dispatchers == 1
    finally:
        backend.close()


def test_sharded_run_honours_workdir(tmp_path):
    # --wd is resolved once per run and handed to every shard worker.
    workdir = str(tmp_path.resolve())
    summary, text = run_collect("pwd", range(6), jobs=4, dispatchers=2,
                                workdir=workdir)
    assert summary.ok and summary.rpc, "the run was not sharded"
    assert text.splitlines() == [workdir] * 6
    unsharded, text = run_collect("pwd", range(2), workdir=workdir)
    assert unsharded.rpc == {} and text.splitlines() == [workdir] * 2
