"""Streaming result plane: bounded retention, lazy sources, O(1) memory.

Million-job runs must not grow the coordinator linearly: ``RunSummary``
keeps a bounded window of recent results (``--keep-results``, default
10,000) while aggregates (counts, exit histogram, mean runtime, launch
rate) stay exact via incremental accumulators, and generator input
sources are consumed lazily — the scheduler holds O(slots + batch)
state, never the whole run.  With an output sink the window keeps each
record without its printed stdout, so RSS is flat in output size too.
The child-interpreter smokes at the bottom pin the actual coordinator
RSS under a ceiling well below what unbounded retention measures.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from repro import Parallel
from repro.core.backends.base import Backend
from repro.core.inputs import shuffled
from repro.core.job import JobResult, JobState
from repro.core.results import retention_buffer

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# ------------------------------------------------------- retention buffer
def test_retention_buffer_shapes():
    unbounded = retention_buffer(None)
    assert isinstance(unbounded, list)
    window = retention_buffer(5)
    assert getattr(window, "maxlen") == 5
    empty = retention_buffer(0)
    empty.append("x")
    assert len(empty) == 0
    with pytest.raises(ValueError):
        retention_buffer(-1)


# ----------------------------------------------------- bounded aggregates
def test_bounded_window_keeps_latest_aggregates_stay_exact():
    # Serial (jobs=1) so completion order == seq order: the window must
    # hold exactly the last 10 seqs while every aggregate covers all 50.
    summary = Parallel(lambda x: x, jobs=1, keep_results=10).run(range(50))
    assert summary.ok
    assert summary.n_completed == 50
    assert summary.n_succeeded == 50
    assert summary.n_results_dropped == 40
    assert len(summary.results) == 10
    assert sorted(r.seq for r in summary.results) == list(range(41, 51))
    assert summary.exit_counts == {0: 50}
    assert summary.mean_runtime >= 0.0
    assert summary.observed_launch_rate > 0.0


def test_keep_results_all_retains_everything():
    summary = Parallel(lambda x: x, jobs=2, keep_results="all").run(range(30))
    assert summary.n_completed == 30
    assert len(summary.results) == 30
    assert summary.n_results_dropped == 0


def test_keep_results_zero_counts_only():
    summary = Parallel(lambda x: x, jobs=2, keep_results=0).run(range(12))
    assert summary.ok
    assert summary.n_completed == 12
    assert len(summary.results) == 0
    assert summary.n_results_dropped == 12
    assert summary.exit_counts == {0: 12}


def test_to_dict_reports_retention():
    summary = Parallel(lambda x: x, jobs=1, keep_results=4).run(range(9))
    d = summary.to_dict()
    assert d["n_completed"] == 9
    assert d["n_results_dropped"] == 5
    assert d["results_retained"] == 4
    assert d["exit_counts"] == {"0": 9}
    assert len(d["results"]) == 4


def test_map_widens_auto_retention():
    # map() must hand back every value even past the default window, so
    # keep_results="auto" widens to "all" for that call only.
    engine = Parallel(lambda x: int(x) * 2, jobs=4)
    assert engine.map(range(100)) == [x * 2 for x in range(100)]
    assert engine.options.keep_results == "auto"  # engine state untouched


# --------------------------------------------------------- output parity
def test_retention_does_not_change_emitted_output():
    # The output plane streams results as they complete; the retention
    # window only affects what the summary keeps afterwards.
    def run(keep):
        chunks = []
        engine = Parallel(
            "echo line-{}",
            output=lambda _res, text: chunks.append(text),
            jobs=3, keep_order=True, keep_results=keep,
        )
        summary = engine.run(range(1, 25))
        assert summary.ok
        return hashlib.sha256("".join(chunks).encode()).hexdigest()

    assert run(4) == run("all")


# ------------------------------------------------------- output ownership
#: Prints one stdout line and one stderr line per job; input 3 fails.
OWNED_CMD = "printf 'out-%s\\n' {}; printf 'err-%s\\n' {} >&2; test {} != 3"


def test_sink_owns_stdout_summary_keeps_the_rest():
    seen = {}
    summary = Parallel(
        OWNED_CMD, jobs=3, keep_order=True, tag=True, keep_results="all",
        output=lambda res, text: seen.__setitem__(res.seq, text),
    ).run(range(1, 7))
    assert summary.n_completed == 6 and summary.n_failed == 1
    assert seen == {i: f"{i}\tout-{i}\n" for i in range(1, 7)}
    for r in summary.sorted_results():
        assert r.stdout == ""
        assert r.stderr == f"err-{r.args[0]}\n"
        assert r.args == (str(r.seq),)
        assert r.exit_code == (1 if r.seq == 3 else 0)
        assert 0 < r.start_time <= r.end_time


def test_without_sink_summary_keeps_stdout():
    summary = Parallel(OWNED_CMD, jobs=3, keep_results="all").run(range(1, 7))
    assert [r.stdout for r in summary.sorted_results()] == [
        f"out-{i}\n" for i in range(1, 7)
    ]


def test_sink_leaves_callable_values_and_failures_on_the_record():
    def job(x):
        if x == "2":
            raise ValueError("boom")
        return x + "!"

    summary = Parallel(job, jobs=2, keep_results="all",
                       output=lambda res, text: None).run(["1", "2", "3"])
    by_seq = {r.seq: r for r in summary.results}
    assert [by_seq[s].value for s in (1, 3)] == ["1!", "3!"]
    assert all(r.stdout == "" for r in summary.results)
    assert "boom" in by_seq[2].stderr


def test_stdout_free_copy_keeps_every_other_field():
    from repro.core.scheduler import _without_stdout

    # One distinct value per field: a field added to JobResult but not
    # to the positional copy fails here.
    full = JobResult(
        seq=7, args=("a", "b"), command="cmd a b", exit_code=3,
        stdout="text", stderr="err", start_time=1.5, end_time=2.5, slot=4,
        host="h1", attempt=2, state=JobState.FAILED, value=object(),
    )
    assert _without_stdout(full) == dataclasses.replace(full, stdout="")


class _FixedClockBackend(Backend):
    """Deterministic results (fixed times, non-ASCII text, one failure),
    so two runs' joblogs can be compared byte for byte."""

    host = "fixed"

    def run_job(self, job, slot, options, timeout=None):
        arg = job.args[0]
        return JobResult(
            seq=job.seq, args=job.args, command=job.command,
            exit_code=int(arg == "3"), stdout=f"out-{arg}-é\n",
            stderr=f"err-{arg}\n", start_time=1000.0 + job.seq,
            end_time=1000.5 + job.seq, slot=slot, host=self.host,
            state=JobState.FAILED if arg == "3" else JobState.SUCCEEDED,
        )


def test_joblog_and_results_files_identical_with_and_without_sink(tmp_path):
    def run(name, output):
        log, root = tmp_path / f"{name}.log", tmp_path / name
        summary = Parallel(
            "job {}", backend=_FixedClockBackend(), output=output, jobs=2,
            joblog=str(log), results=str(root),
        ).run(["1", "2", "3", "4"])
        assert summary.n_completed == 4
        files = {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
        lines = log.read_bytes().splitlines(keepends=True)
        return lines[0] + b"".join(sorted(lines[1:])), files

    sunk = run("sunk", lambda res, text: None)
    plain = run("plain", None)
    assert sunk == plain
    assert sunk[1]["1/2/stdout"] == "out-2-é\n".encode()
    assert b"\t9\t6\t1\t0\tjob 3\n" in sunk[0]  # Send counts é as 2 bytes


# ------------------------------------------------------------ lazy source
def test_generator_source_consumed_lazily():
    pulled = []

    def source():
        i = 0
        while True:  # unbounded: full materialization would never return
            pulled.append(i)
            yield i
            i += 1

    summary = Parallel(
        lambda x: x, jobs=2, halt="now,success=3"
    ).run(source())
    assert summary.halted
    assert summary.n_succeeded >= 3
    # The scheduler read only a dispatch window's worth, not "everything".
    assert len(pulled) < 100


def test_shuffled_materializes_once_as_list():
    groups = shuffled((f"in-{i}" for i in range(10)), seed=7)
    assert isinstance(groups, list)  # reusable: len() + iteration
    assert len(groups) == 10
    assert shuffled((f"in-{i}" for i in range(10)), seed=7) == groups


def test_shuf_run_is_a_permutation():
    chunks = []
    engine = Parallel(
        "echo {}", output=lambda _res, text: chunks.append(text),
        jobs=2, shuf=True, keep_order=True,
    )
    summary = engine.run(range(1, 13))
    assert summary.ok
    assert sorted("".join(chunks).split()) == sorted(
        str(i) for i in range(1, 13)
    )


# ------------------------------------------------------- RSS ceilings
#: Peak-RSS ceiling (KiB) for the child runs below.  The 100k-job run
#: measured ~36 MB bounded vs ~85 MB with --keep-results all, so 64 MiB
#: fails if retention regresses to linear growth but has ~2x headroom
#: over the bounded path's real footprint.
RSS_CEILING_KIB = 64 * 1024

#: Appended to each workload: prints the child's peak RSS in KiB.
_PEAK_KIB = """
import resource, sys
peak_kib = 0
try:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                peak_kib = int(line.split()[1])
except OSError:
    pass
if not peak_kib:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak_kib //= 1024
print(peak_kib)
"""


def _child_peak_kib(workload: str) -> int:
    """Run ``workload`` in a child interpreter; its peak RSS in KiB.

    A child keeps the measurement to this run alone.  The child reports
    VmHWM where available, not ru_maxrss: the rusage counter is a
    fork-inherited high-water mark (the child briefly shares the
    parent's COW-resident pages before exec), so under a full pytest run
    it floors at the *parent's* RSS.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(workload) + _PEAK_KIB],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.strip())


def test_100k_jobs_bounded_coordinator_rss():
    """End-to-end streaming smoke: 100k jobs from a generator source."""
    rss_kib = _child_peak_kib(
        """
        from repro import Parallel

        summary = Parallel(lambda x: None, jobs=8).run(
            iter(range(100_000))
        )
        assert summary.ok, "run failed"
        assert summary.n_completed == 100_000, summary.n_completed
        assert summary.n_results_dropped == 90_000, summary.n_results_dropped
        assert len(summary.results) == 10_000
        assert summary.coordinator_rss > 0
        """
    )
    assert rss_kib < RSS_CEILING_KIB, (
        f"coordinator RSS {rss_kib} KiB >= ceiling {RSS_CEILING_KIB} KiB"
    )


def test_sink_run_rss_flat_as_output_grows():
    """400 jobs x 256 KiB (100 MiB of output) through a sink, -k --tag.

    The sink owns each job's text, so the coordinator holds only the
    in-flight and --keep-order-held outputs, not every printed one.
    Before the summary dropped stdout on sink runs, this run peaked at
    124,492 KiB VmHWM (every job's text retained); after, ~27-29 MiB
    (CPython 3.11, 2-CPU x86-64 Linux host).
    """
    rss_kib = _child_peak_kib(
        """
        import os, tempfile
        from repro import Parallel

        n, line = 400, "x" * 63 + "\\n"
        with tempfile.TemporaryDirectory() as tmp:
            blob = os.path.join(tmp, "blob")
            with open(blob, "w") as fh:
                fh.write(line * 4096)  # 256 KiB
            received = 0

            def sink(_result, text):
                global received
                received += len(text)

            summary = Parallel(
                f"cat {blob} # {{}}", jobs=8, keep_order=True, tag=True,
                output=sink,
            ).run(range(n))
        assert summary.ok and summary.n_completed == n, summary.n_failed
        expect = sum(4096 * (len(line) + len(str(i)) + 1) for i in range(n))
        assert received == expect, (received, expect)
        """
    )
    assert rss_kib < RSS_CEILING_KIB, (
        f"coordinator RSS {rss_kib} KiB >= ceiling {RSS_CEILING_KIB} KiB"
    )
