"""Which results reach the caller's thread, and a run's one exec context.

A final result is handed to the caller's thread only when that thread
has work for it: a stream sink has none for a job that printed nothing,
while ``--keep-order``, ``--results``, progress callbacks and callback
sinks see every job.  A sink that changes ``os.environ`` or removes the
directory mid-run leaves every job launchable, and directly exec'd and
shell jobs agreeing on the environment.
"""

import ctypes
import io
import os

import pytest

from repro import Parallel
from repro.core.joblog import read_joblog
from repro.core.output import OutputSequencer

# seq 4 prints to stdout, seq 6 to stderr, the rest print nothing.
NOISY = "if [ {} = 3 ]; then echo out; fi; if [ {} = 5 ]; then echo err >&2; fi"


@pytest.fixture
def pushes(monkeypatch):
    """The seqs ``OutputSequencer.push`` is called with."""
    seen = []
    real = OutputSequencer.push

    def push(self, result):
        seen.append(result.seq)
        real(self, result)

    monkeypatch.setattr(OutputSequencer, "push", push)
    return seen


def test_a_stream_sink_gets_only_jobs_with_output(pushes):
    out = io.StringIO()
    summary = Parallel(NOISY, jobs=4, output=out).run(range(40))
    assert summary.n_succeeded == 40
    assert sorted(pushes) == [4, 6]
    assert out.getvalue() == "out\n"


def test_silent_jobs_never_reach_the_sequencer(pushes):
    summary = Parallel("true # {}", jobs=4, output=io.StringIO()).run(range(50))
    assert (summary.n_succeeded, pushes) == (50, [])


def test_keep_order_pushes_every_job(pushes):
    out = io.StringIO()
    Parallel(NOISY, jobs=4, output=out, keep_order=True).run(range(30))
    assert sorted(pushes) == list(range(1, 31))
    assert out.getvalue() == "out\n"


def test_callback_sink_sees_every_job_in_completion_order(tmp_path):
    seqs = []
    log = tmp_path / "joblog"
    Parallel("true # {}", jobs=4, joblog=str(log),
             output=lambda result, _text: seqs.append(result.seq)).run(range(40))
    assert seqs == [r.seq for r in read_joblog(str(log))]
    assert sorted(seqs) == list(range(1, 41))


def test_progress_sees_every_job(pushes):
    done = []
    Parallel("true # {}", jobs=4, output=io.StringIO(),
             progress=lambda p: done.append(p.done)).run(range(40))
    assert done == list(range(1, 41))
    assert sorted(pushes) == list(range(1, 41))


def test_results_tree_gets_every_job(tmp_path, pushes):
    Parallel("true # {}", jobs=4, output=io.StringIO(),
             results=str(tmp_path / "res")).run(range(25))
    assert len(list((tmp_path / "res").rglob("stdout"))) == 25
    assert sorted(pushes) == list(range(1, 26))


def _env_of(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def test_a_mid_run_environ_change_keeps_both_legs_agreeing(monkeypatch):
    # "env" is exec'd directly; with " #" it runs through the shell.  A
    # sink sets a variable after the first job: a job sees it or not,
    # but directly exec'd and shell jobs agree on everything else, and
    # both see it in the next run.
    monkeypatch.delenv("REPRO_MID_RUN", raising=False)
    commands = ["env", "env #"] * 12
    seen = []

    def sink(result, _text):
        os.environ["REPRO_MID_RUN"] = "1"
        seen.append(result)

    try:
        summary = Parallel("{}", jobs=2, keep_order=True, output=sink).run(commands)
        again = Parallel("{}", jobs=2).run(["env", "env #"])
    finally:
        os.environ.pop("REPRO_MID_RUN", None)
    assert summary.n_succeeded == len(commands)
    envs = [_env_of(result.stdout) for result in seen]
    assert "REPRO_MID_RUN" not in envs[0]
    assert {e.pop("REPRO_MID_RUN", None) for e in envs} <= {None, "1"}
    assert [sorted(set(e.items()) ^ set(envs[0].items())) for e in envs] == [[]] * len(envs)
    by_command = {r.command: _env_of(r.stdout) for r in again.results}
    assert by_command["env"]["REPRO_MID_RUN"] == "1"
    assert by_command["env #"] == by_command["env"]


def test_a_name_set_only_in_the_c_environment_reaches_both_legs(monkeypatch):
    # A library can set a name with C setenv, behind os.environ's back
    # (readline sets LINES and COLUMNS).  A job the shell runs inherits
    # it, so a directly exec'd job must get it too.
    from repro.core.backends import spawn

    libc = ctypes.CDLL(None)
    libc.setenv.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int]
    libc.setenv.restype = ctypes.c_int
    libc.unsetenv.argtypes = [ctypes.c_char_p]
    libc.unsetenv.restype = ctypes.c_int
    # No exec context probed before the setenv, none kept after the unsetenv.
    monkeypatch.setattr(spawn, "_exec_envs", {})
    assert "ONLY_IN_C" not in os.environ
    assert libc.setenv(b"ONLY_IN_C", b"1", 1) == 0
    try:
        summary = Parallel("{}").run(["env", "env #"])
    finally:
        libc.unsetenv(b"ONLY_IN_C")
    by_command = {r.command: _env_of(r.stdout) for r in summary.results}
    assert by_command["env #"].get("ONLY_IN_C") == "1"
    assert by_command["env"].get("ONLY_IN_C") == "1"


def test_jobs_still_run_when_the_directory_goes_mid_run(tmp_path, monkeypatch):
    # Jobs inherit this process's directory; removing it after the first
    # job must not make the rest fail to launch.
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)

    def sink(_result, _text):
        if gone.exists():
            gone.rmdir()

    commands = ["true {}", "true # {}"] * 10
    summary = Parallel("{}", jobs=2, output=sink).run(commands)
    assert not gone.exists()
    assert (summary.n_succeeded, summary.n_failed) == (len(commands), 0)
