"""``run_command``: the one subprocess runner, its legs and its helpers.

Every caller (local backend, remote transport) reaches a subprocess
through ``run_command``; shard workers share its launcher, reaper rule
and kill/nice helpers.  The legs must agree byte for byte, and the one
dead-reaper rule — a fresh ``PipeReaper`` for the next job — is forced
here on each of the two reaper owners.
"""

import errno
import itertools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Parallel
from repro.core.backends import spawn
from repro.core.backends.pool import DispatcherPool
from repro.core.backends.reaper import PipeReaper
from repro.core.backends.spawn import (
    REAPER_GONE,
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    decode_output,
    run_command,
    spawn_supported,
)

pytestmark = pytest.mark.skipif(
    not spawn_supported(), reason="posix_spawn unavailable on this platform"
)

MIXED = "echo out; echo err >&2; exit 3"
#: command → the outcome every leg must give.
CASES = {
    MIXED: (3, b"out\n", b"err\n", False),
    # 1 MiB of stdout, well past the 64 KiB pipe buffer, in 16 numbered
    # 64 KiB lines with a stderr line after each.
    ('i=0; while [ $i -lt 16 ]; do printf "%065535d\\n" $i; '
     'echo "err $i" >&2; i=$((i+1)); done; exit 3'): (
        3, b"".join(b"%065535d\n" % i for i in range(16)),
        b"".join(b"err %d\n" % i for i in range(16)), False),
    # Reopening fd 1 or 2 by name, truncating or appending, loses nothing.
    ("echo a; echo b >/dev/stdout; echo c >>/dev/stdout; "
     "echo e1 >/dev/stderr; echo e2 >/dev/stderr"): (
        0, b"a\nb\nc\n", b"e1\ne2\n", False),
    # A backgrounded grandchild still holding stdout keeps the job open.
    "(sleep 0.3; echo late) & echo early": (0, b"early\nlate\n", b"", False),
}


@pytest.fixture
def posix():
    launcher, reapers = SpawnLauncher(), LiveReaper()
    yield launcher, reapers
    reapers.close()
    launcher.close()


def _outcome(done):
    return done.returncode, done.stdout, done.stderr, done.timed_out


def _legs(posix, **extra):
    """run_command keywords for each leg, by name."""
    launcher, reapers = posix
    return {
        "posix": dict(launcher=launcher, reaper=reapers.get()),
        "popen": {},
        "cwd": dict(launcher=launcher, cwd=os.getcwd()),
        "stdin": dict(launcher=launcher, stdin=""),
        "stream": dict(launcher=launcher, stream=lambda _text: None),
        **extra,
    }


# ------------------------------------------------------------------- legs
def test_every_leg_gives_the_same_outcome(posix):
    table = ProcessTable()
    for command, expected in CASES.items():
        streamed = []
        legs = _legs(posix, stream=dict(stream=streamed.append))
        outcomes = {name: _outcome(run_command(command, table=table, **kw))
                    for name, kw in legs.items()}
        assert outcomes == dict.fromkeys(legs, expected), command
        assert "".join(streamed).encode() == expected[1]


@pytest.mark.parametrize("leg", ["popen", "stream", "stdin"])
def test_poll_loop_takes_a_timeout_longer_than_one_poll(posix, leg):
    done = run_command(MIXED, table=ProcessTable(), timeout=1e9,
                       **_legs(posix)[leg])
    assert _outcome(done) == CASES[MIXED]


def test_popen_leg_feeds_stdin_and_honours_cwd(tmp_path):
    done = run_command("cat; pwd", table=ProcessTable(), stdin="a\nb\n",
                       cwd=str(tmp_path))
    assert done.stdout == f"a\nb\n{tmp_path}\n".encode()


# ---------------------------------------------------------- streaming leg
def test_stream_chunks_end_at_newlines_and_the_tail_arrives():
    chunks = []
    done = run_command("printf 'a\\nb'; sleep 0.2; printf 'c\\nd'",
                       table=ProcessTable(), stream=chunks.append)
    assert "".join(chunks) == "a\nbc\nd"
    assert all(chunk.endswith("\n") for chunk in chunks[:-1])
    assert chunks[-1] == "d"  # unterminated, flushed at EOF before return
    assert done.stdout == b"a\nbc\nd"


def test_stream_replaces_invalid_utf8_but_keeps_raw_bytes():
    chunks = []
    done = run_command("printf 'ok\\377\\n'", table=ProcessTable(),
                       stream=chunks.append)
    assert chunks == ["ok\ufffd\n"]
    assert done.stdout == b"ok\xff\n"


def test_stream_waits_for_a_grandchild_holding_stdout():
    # As with communicate(): the job is open until every writer closes.
    chunks = []
    t0 = time.time()
    done = run_command("(sleep 0.3; echo late) & echo early",
                       table=ProcessTable(), stream=chunks.append)
    assert chunks == ["early\n", "late\n"]
    assert done.stdout == b"early\nlate\n"
    assert time.time() - t0 >= 0.25


def test_stream_timeout_covers_a_job_that_closed_its_pipes():
    t0 = time.time()
    done = run_command("exec >&- 2>&-; sleep 30", table=ProcessTable(),
                       timeout=0.2, stream=lambda _text: None)
    assert (done.timed_out, done.returncode) == (True, -15)
    assert time.time() - t0 < 5


def test_stream_raising_still_reaps_the_job():
    table = ProcessTable()

    def broken(_text):
        raise RuntimeError("sink failed")

    t0 = time.time()
    with pytest.raises(RuntimeError, match="sink failed"):
        run_command("echo first; sleep 30", table=table, stream=broken)
    assert time.time() - t0 < 5  # killed, not waited out
    assert table.kill_all() == 0  # and no longer in flight


def test_smoke_script_passes():
    # The plain-Python check each interpreter version runs (fork_exec's
    # argument list is per-version); here under the suite's interpreter.
    script = Path(__file__).resolve().parents[1] / "spawn_smoke.py"
    src = str(Path(spawn.__file__).resolve().parents[3])
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_timestamps_are_ordered(posix):
    launcher, reapers = posix
    done = run_command("true", table=ProcessTable(), launcher=launcher,
                       reaper=reapers.get())
    assert done.start <= done.spawned <= done.end
    assert done.pid > 0


@pytest.mark.parametrize("leg", ["posix", "popen", "stdin", "stream"])
def test_timeout_kills_the_group(posix, leg):
    kw = _legs(posix)[leg]
    # The shell itself, and a backgrounded grandchild that still holds
    # stdout after the shell has exited: the SIGTERM reaches both.
    for command, returncode in [("sleep 30", -15), ("sleep 30 & echo early", 0)]:
        t0 = time.time()
        done = run_command(command, table=ProcessTable(), timeout=0.2, **kw)
        assert (done.timed_out, done.returncode) == (True, returncode)
        assert time.time() - t0 < 5


@pytest.mark.parametrize("leg", ["posix", "popen", "stdin", "stream"])
def test_cancel_reaches_a_grandchild_holding_stdout(posix, leg):
    # The shell exits at once, but the job stays in flight until its
    # pipes close, so a cancel still finds and kills the grandchild.
    table, done = ProcessTable(), []
    kw = _legs(posix)[leg]
    runner = threading.Thread(target=lambda: done.append(
        run_command("sleep 30 & echo early", table=table, **kw)))
    runner.start()
    time.sleep(0.3)
    assert table.kill_all() == 1
    runner.join(5)
    assert not runner.is_alive()
    assert done[0].stdout == b"early\n"


@pytest.mark.parametrize("leg", ["posix", "popen", "stream", "stdin"])
def test_spawn_failure_raises_oserror(posix, leg, tmp_path):
    missing, gone = str(tmp_path / "no-such-shell"), str(tmp_path / "gone")
    if leg == "posix":
        launcher = SpawnLauncher(missing)
        try:
            with pytest.raises(OSError):
                run_command("true", table=ProcessTable(), launcher=launcher,
                            reaper=posix[1].get(), shell=missing)
        finally:
            launcher.close()
        return
    kw = _legs(posix)[leg]
    # errno and filename as Popen reported them: the missing shell, or
    # the cwd the child could not enter (LocalTransport's dead host).
    fails = [(dict(shell=missing), missing), (dict(cwd=gone), gone)]
    for fail, filename in fails:
        with pytest.raises(OSError) as caught:
            run_command("true", table=ProcessTable(), **fail, **kw)
        assert (caught.value.errno, caught.value.filename) == (errno.ENOENT, filename)
    # The pipes exist before the spawn: no failure leaks them.
    before = set(os.listdir("/proc/self/fd"))
    for fail, _ in fails * 25:
        with pytest.raises(OSError):
            run_command("true", table=ProcessTable(), **fail, **kw)
    assert set(os.listdir("/proc/self/fd")) == before


def test_env_key_with_an_equals_sign_raises_before_any_fork(monkeypatch):
    def fork_exec(*_args):
        raise AssertionError("forked")

    monkeypatch.setattr(spawn, "fork_exec", fork_exec)
    before = set(os.listdir("/proc/self/fd"))
    for kw in ({}, dict(stdin="x"), dict(stream=lambda _text: None)):
        with pytest.raises(ValueError, match="illegal environment variable name"):
            run_command("true", table=ProcessTable(), env={"A=B": "x"}, **kw)
    assert set(os.listdir("/proc/self/fd")) == before


#: Every way a fork_exec job can end early, in a fresh interpreter whose
#: only children are these jobs: afterwards none is left, not even a
#: zombie, so ``waitpid(-1)`` finds no child at all.
NO_CHILD_LEFT = r"""
import os, threading, time
from repro.core.backends.spawn import ProcessTable, run_command

def no_child_left(case):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child is left after {case}")

def broken(_text):
    raise RuntimeError("sink failed")

for leg, kw in [("popen", {}), ("stdin", {"stdin": "x" * 200000}),
                ("stream", {"stream": lambda _text: None})]:
    run_command("sleep 30", table=ProcessTable(), timeout=0.1, **kw)
    no_child_left(f"{leg}: timeout")
    for fail in ({"shell": "/no/such/shell"}, {"cwd": "/no/such/dir"}):
        try:
            run_command("true", table=ProcessTable(), **fail, **kw)
        except OSError:
            pass
        no_child_left(f"{leg}: exec failure {fail}")
    table = ProcessTable()
    runner = threading.Thread(target=run_command, args=("sleep 30",),
                              kwargs=dict(table=table, **kw))
    runner.start()
    time.sleep(0.2)
    table.kill_all()
    runner.join(5)
    assert not runner.is_alive(), f"{leg}: cancel did not end the job"
    no_child_left(f"{leg}: cancel")
try:
    run_command("echo first; sleep 30", table=ProcessTable(), stream=broken)
except RuntimeError:
    pass
no_child_left("a raising stream")
print("ok")
"""


def test_no_path_leaves_a_child_unreaped():
    src = str(Path(spawn.__file__).resolve().parents[3])
    result = subprocess.run(
        [sys.executable, "-c", NO_CHILD_LEFT], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr


def test_cancel_before_registration_still_kills(posix):
    launcher, reapers = posix
    table = ProcessTable()
    assert table.kill_all() == 0  # the cancel lands before the job exists
    t0 = time.time()
    done = run_command("sleep 30", table=table, launcher=launcher,
                       reaper=reapers.get())
    assert done.returncode == -15
    assert time.time() - t0 < 5


def test_reaper_closed_before_register_collects_inline(posix):
    launcher, _ = posix
    reaper = PipeReaper()
    reaper.close()
    done = run_command("exit 3", table=ProcessTable(), launcher=launcher,
                       reaper=reaper)
    assert (done.returncode, done.stdout, done.stderr) == (3, b"", REAPER_GONE)


def test_decode_output_matches_popen_text_mode():
    assert decode_output(b"a\r\nb\rc\n", "utf-8") == "a\nb\nc\n"
    with pytest.raises(UnicodeDecodeError):
        decode_output(b"\xff", "utf-8")


# -------------------------------------------------- the dead-reaper rule
def _close_on_register(monkeypatch, n):
    """The n-th ``PipeReaper.register`` call (per process) closes its
    reaper first: the job lands in the closed-after-pick window, and
    every later job must be served by a fresh reaper."""
    real = PipeReaper.register
    calls = itertools.count(1)

    def register(self, *args, **kwargs):
        if next(calls) == n:
            self.close()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PipeReaper, "register", register)


#: Job 3 writes nothing, so its inline collection is deterministic.
QUIET_THIRD = "test {} = 3 || echo out-{}"


def test_dead_reaper_local_backend(monkeypatch):
    _close_on_register(monkeypatch, 3)
    summary = Parallel(QUIET_THIRD, jobs=1, keep_order=True,
                       keep_results="all", spawn_path="posix").run(range(1, 7))
    by_seq = {r.seq: r for r in summary.results}
    assert by_seq[3].stderr == REAPER_GONE.decode()
    for seq in (1, 2, 4, 5, 6):
        assert (by_seq[seq].exit_code, by_seq[seq].stdout) == (0, f"out-{seq}\n")


def test_dead_reaper_dispatcher_worker(monkeypatch):
    # The worker forks after the patch, so its reaper inherits it.
    _close_on_register(monkeypatch, 3)
    pool = DispatcherPool(1)
    pool.start()
    try:
        replies = {i: pool.run(QUIET_THIRD.replace("{}", str(i)))
                   for i in range(1, 7)}
    finally:
        pool.close()
    assert replies[3].stderr == REAPER_GONE
    for i in (1, 2, 4, 5, 6):
        assert (replies[i].kind, replies[i].returncode, replies[i].stdout) == (
            "done", 0, f"out-{i}\n".encode(),
        )
