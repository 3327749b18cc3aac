"""``run_command``: the one subprocess runner, its legs and its helpers.

Every caller (local backend, remote transport) reaches a subprocess
through ``run_command``; shard workers share its launcher, reaper rule
and kill/nice helpers.  The legs must agree byte for byte, and the one
dead-reaper rule — a fresh ``PipeReaper`` for the next job — is forced
here on each of the two reaper owners.  A plain command runs without
the shell on every leg, and must see the environment and the failure
reports the shell would have given it.
"""

import ctypes
import errno
import itertools
import os
import shutil
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
from repro.core.joblog import read_joblog
from repro.remote.hosts import HostSpec
from repro.remote.transport import LocalTransport

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


# -------------------------------------------- plain commands skip the shell
PLAIN_LEGS = ["default", "wd", "pipe", "linebuffer", "posix", "transport"]
#: The shells whose environment the direct exec models, as a run names
#: them; "bash-as-sh" is a ``sh`` that links to bash (Fedora, RHEL, Arch).
SHELLS = ["dash", "bash", "bash-as-sh"]


@pytest.fixture(params=SHELLS)
def shell(request, tmp_path, monkeypatch):
    """The ``shell`` argument for one of :data:`SHELLS`, with no name
    in the environment that makes bash keep the shell."""
    program = shutil.which(request.param.split("-")[0])
    if program is None:
        pytest.skip(f"{request.param} is not installed")
    for name in list(os.environ):
        if name.startswith(spawn._BASH_OWN):
            monkeypatch.delenv(name)
    if request.param != "bash-as-sh":
        return program
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "sh").symlink_to(os.path.realpath(program))
    return str(tmp_path / "bin" / "sh")


def _env_lines(out, shell):
    """``env``'s output as a set of lines, less the ``_`` bash sets to
    the program's path and the direct exec does not."""
    lines = set(out.splitlines())
    if spawn._shell_program(shell, []) == "bash":
        lines = {line for line in lines if not line.startswith(b"_=")}
    return lines


def _c_environ():
    """The process's C ``environ`` as a dict of bytes."""
    environ = ctypes.POINTER(ctypes.c_char_p).in_dll(ctypes.CDLL(None), "environ")
    entries = itertools.takewhile(bool, (environ[i] for i in itertools.count()))
    return dict(entry.split(b"=", 1) for entry in entries)


@pytest.fixture
def run_on(posix, tmp_path, shell, monkeypatch):
    """``run_on(leg, command, env=None)`` → ``(returncode, stdout, stderr,
    direct)`` under ``shell``; ``direct`` is None on the transport leg,
    which does not report it.  ``wd`` and ``transport`` run in
    ``tmp_path/"job"``."""
    # A job the shell runs inherits the C environment, where a library
    # may have set names behind os.environ's back (readline's LINES and
    # COLUMNS); a direct exec builds its environment from os.environ.
    # Copy those names in, so both start from the same environment.
    for key, value in _c_environ().items():
        if key not in os.environb:
            monkeypatch.setenv(os.fsdecode(key), os.fsdecode(value))
    jobdir = tmp_path / "job"
    jobdir.mkdir()
    launchers, transports = [], []

    def run(leg, command, env=None):
        if leg == "transport":
            transport = LocalTransport(root=str(tmp_path / "hosts"), shell=shell)
            transports.append(transport)
            done = transport.execute(HostSpec("h1"), command, workdir=str(jobdir),
                                     env=env)
            return (done.exit_code, done.stdout.encode(), done.stderr.encode(),
                    None)
        if leg == "posix":
            # The launcher's environment is fixed when it is built.
            launcher = SpawnLauncher(shell, env=spawn.merged_env(env))
            launchers.append(launcher)
            kw = dict(launcher=launcher, reaper=posix[1].get())
        else:
            kw = {"default": {}, "wd": dict(cwd=str(jobdir)),
                  "pipe": dict(stdin=""),
                  "linebuffer": dict(stream=lambda _text: None)}[leg]
            kw["env"] = spawn.merged_env(env)
        done = run_command(command, table=ProcessTable(), shell=shell, **kw)
        return done.returncode, done.stdout, done.stderr, done.direct

    yield run
    for launcher in launchers:
        launcher.close()
    for transport in transports:
        transport.close()


@pytest.mark.parametrize("case", ["stale", "unset", "symlink", "job-symlink",
                                  "no-shlvl"])
@pytest.mark.parametrize("leg", PLAIN_LEGS)
def test_direct_exec_passes_the_shells_environment(run_on, shell, leg, case,
                                                   monkeypatch, tmp_path):
    # The shell exports PWD as the job's directory, keeping an inherited
    # PWD only when it names that directory (through a symlink, say);
    # bash started without SHLVL exports SHLVL=0.
    home = tmp_path / "home"
    home.mkdir()
    (tmp_path / "home-link").symlink_to(home)
    (tmp_path / "job-link").symlink_to(tmp_path / "job")
    monkeypatch.chdir(home)
    if case == "no-shlvl":
        monkeypatch.delenv("SHLVL", raising=False)
    elif case == "unset":
        monkeypatch.delenv("PWD", raising=False)
    else:
        monkeypatch.setenv("PWD", {"stale": "/", "symlink": str(tmp_path / "home-link"),
                                   "job-symlink": str(tmp_path / "job-link")}[case])
    rc, out, err, direct = run_on(leg, "env")
    forced = run_on(leg, "env #")
    got, want = _env_lines(out, shell), _env_lines(forced[1], shell)
    assert (got - want, want - got) == (set(), set())
    assert (rc, err) == (forced[0], forced[2]) == (0, b"")
    assert (direct, forced[3]) in {(True, False), (None, None)}


@pytest.mark.parametrize("leg", PLAIN_LEGS)
def test_direct_exec_drops_and_resets_what_the_shell_does(run_on, shell, leg):
    # dash drops names no shell variable can have, bash passes them on;
    # each drops or resets a few names of its own.
    env = {"A-B": "1", "x.y": "2", "IFS": ":", "OPTIND": "7", "PPID": "1",
           "RANDOM": "4", "OPTERR": "0", "PS4": "> ", "LINENO": "9",
           "OLDPWD": "/no/such/dir", "REPRO_PLAIN": "a b=c"}
    rc, out, err, direct = run_on(leg, "env", env)
    forced = run_on(leg, "env #", env)
    got, want = _env_lines(out, shell), _env_lines(forced[1], shell)
    assert (got - want, want - got) == (set(), set())
    assert b"REPRO_PLAIN=a b=c" in got
    bash = spawn._shell_program(shell, []) == "bash"
    assert ({b"A-B=1", b"x.y=2"} <= got) is bash
    assert (rc, err) == (forced[0], forced[2]) == (0, b"")
    assert direct in (True, None)


@pytest.mark.parametrize("leg", ["default", "posix"])
def test_non_numeric_optind_matches_the_shell(run_on, leg):
    # dash refuses to start with it; bash resets it.
    env = {"OPTIND": "x"}
    got, forced = run_on(leg, "env", env), run_on(leg, "env #", env)
    assert got[0] == forced[0]
    assert got[0] != 0 or b"OPTIND=1" in got[1].splitlines()


@pytest.mark.parametrize("function", ["f", "cat"])
@pytest.mark.parametrize("leg", PLAIN_LEGS)
def test_exported_bash_function_keeps_the_shell(run_on, shell, leg, function,
                                                tmp_path):
    # `export -f f; parallel ./job.sh ::: ...`: under bash the bash script
    # a plain line starts can still call f, and a function named after a
    # program (cat) runs instead of it.  dash passes neither on.
    script = tmp_path / "job.sh"
    script.write_text("#!/bin/bash\nf\n")
    script.chmod(0o755)
    command = {"f": str(script), "cat": "cat /dev/null"}[function]
    env = {f"BASH_FUNC_{function}%%": "() {  echo from the function\n}"}
    got, forced = run_on(leg, command, env), run_on(leg, command + " #", env)
    assert got[:3] == forced[:3]
    if spawn._shell_program(shell, []) == "bash":
        assert got[:2] == (0, b"from the function\n")
        assert got[3] in (False, None)
    else:
        assert got[3] in (True, None)


def test_shell_leg_inherits_the_process_environment():
    # With env None a job run by the shell gets the C environment, which
    # a library can change behind os.environ's back.
    libc = ctypes.CDLL(None)
    assert libc.setenv(b"REPRO_C_ONLY", b"1", 1) == 0
    try:
        assert "REPRO_C_ONLY" not in os.environ
        assert _c_environ()[b"REPRO_C_ONLY"] == b"1"
        done = run_command("env #", table=ProcessTable())
    finally:
        libc.unsetenv(b"REPRO_C_ONLY")
    assert b"REPRO_C_ONLY=1" in done.stdout.splitlines()


@pytest.fixture
def unrunnable(tmp_path):
    """Programs the direct exec cannot start, by name."""
    script = tmp_path / "no-shebang"
    script.write_text("echo ran as a script; exit 5\n")
    script.chmod(0o755)
    readonly = tmp_path / "not-executable"
    readonly.write_text("#!/bin/sh\necho never\n")
    readonly.chmod(0o644)
    return {
        "missing": "repro-no-such-program x",
        "no-shebang": str(script),
        "not-executable": str(readonly),
        "directory": str(tmp_path),
    }


@pytest.mark.parametrize("case", ["missing", "no-shebang", "not-executable",
                                  "directory"])
@pytest.mark.parametrize("leg", PLAIN_LEGS)
def test_failed_direct_exec_falls_back_to_the_shell(run_on, unrunnable, leg, case):
    # The program never ran, so running the job again through the shell
    # runs nothing twice, and the shell reports the failure exactly.
    command = unrunnable[case]
    got, forced = run_on(leg, command), run_on(leg, command + " #")
    assert got[:3] == forced[:3]
    assert got[3] in (False, None)
    expected = {"missing": 127, "no-shebang": 5, "not-executable": 126,
                "directory": 126}[case]
    assert got[0] == expected
    if case == "no-shebang":
        assert got[1] == b"ran as a script\n"
    else:
        assert command.split()[0].encode() in got[2]


PLAIN = {
    "cat d/b.txt": ["cat", "d/b.txt"],
    "sleep 0.3": ["sleep", "0.3"],
    "cmd --k=v": ["cmd", "--k=v"],
    " \tcat\t a  b ": ["cat", "a", "b"],
    "/usr/bin/env -u X,Y+z@h:1%2": ["/usr/bin/env", "-u", "X,Y+z@h:1%2"],
    "./run.sh": ["./run.sh"],
}
SHELL = [
    "", "   ", "echo 'a'", 'cat "a"', "echo $HOME", "cat `x`", "ls *", "ls a?",
    "ls [ab]", "cd ~", "a;b", "a|b", "a&", "a<b", "a>b", "(a)", "{ a; }",
    "a\\ b", "a\nb", "true # x", "A=1 cmd", "=x", "cat café", "cat а",
    "cat a\rb", "cat a\x0bb",
]
BUILTINS = [
    ".", ":", "alias", "bg", "break", "cd", "command", "continue", "echo",
    "eval", "exec", "exit", "export", "false", "fg", "getopts", "hash", "jobs",
    "kill", "local", "printf", "pwd", "read", "readonly", "return", "set",
    "shift", "test", "time", "times", "trap", "true", "type", "ulimit", "umask",
    "unalias", "unset", "wait", "source", "declare", "let", "if", "for",
    "while", "case", "until",
]


def test_plain_argv_table():
    for command, argv in PLAIN.items():
        assert spawn._plain_argv(command) == argv, command
    for command in SHELL:
        assert spawn._plain_argv(command) is None, repr(command)
    for word in BUILTINS:
        assert spawn._plain_argv(word + " x") is None, word
        assert spawn._plain_argv("./" + word) == ["./" + word]


class _Recording(ProcessTable):
    def __init__(self):
        super().__init__()
        self.pids = []

    def add(self, pid):
        super().add(pid)
        self.pids.append(pid)


def _while_running(command, act, **kw):
    """Run ``command`` in a thread; call ``act(pid)`` once it is in flight."""
    table, done = _Recording(), []
    runner = threading.Thread(target=lambda: done.append(
        run_command(command, table=table, **kw)))
    runner.start()
    deadline = time.time() + 5
    while not table.pids and time.time() < deadline:
        time.sleep(0.01)
    try:
        act(table.pids[0])
    finally:
        runner.join(10)
    return done[0]


@pytest.mark.parametrize("leg", ["popen", "cwd", "stdin", "stream", "posix"])
def test_plain_job_pid_is_the_program(posix, leg):
    # The job's own process is `sleep`: no shell was forked in between.
    comm = []
    done = _while_running(
        "sleep 1",
        lambda pid: comm.append(Path(f"/proc/{pid}/comm").read_text().strip()),
        **_legs(posix)[leg])
    assert comm == ["sleep"]
    assert (done.returncode, done.direct) == (0, True)


@pytest.mark.parametrize("leg", ["popen", "stdin", "posix"])
def test_plain_job_reports_a_signal_sent_to_its_pid(posix, leg):
    done = _while_running("sleep 30", lambda pid: os.kill(pid, 9),
                          **_legs(posix)[leg])
    assert (done.returncode, done.direct) == (-9, True)


def test_signal_death_direct_and_through_the_shell(tmp_path):
    # A program that kills itself: run directly, the job reports the
    # signal (joblog Signal 9); run by dash, dash exits 128+9.
    script = tmp_path / "self-kill"
    script.write_text("#!/bin/sh\nkill -9 $$\n")
    script.chmod(0o755)
    log = tmp_path / "joblog"
    summary = Parallel("{}", jobs=1, keep_order=True, keep_results="all",
                       joblog=str(log)).run([str(script), f"{script} #"])
    assert [r.exit_code for r in summary.results] == [-9, 137]
    assert [(e.exitval, e.signal) for e in read_joblog(str(log))] == [
        (0, 9), (137, 0)]


def _count_probes(monkeypatch):
    """A list that gains the cwd of every environment probe launched."""
    probes = []
    real = spawn._launch

    def launch(argv, executables, cwd, env, stdin):
        if argv[-1].endswith(" /proc/self/environ"):
            probes.append(cwd)
        return real(argv, executables, cwd, env, stdin)

    monkeypatch.setattr(spawn, "_launch", launch)
    return probes


def test_environment_vector_is_built_once_per_env_and_cwd(monkeypatch, tmp_path):
    env = dict(os.environ, PWD="/")
    built = []
    real = spawn._ExecEnv.__init__

    def init(self, *args):
        built.append(args[2])
        real(self, *args)

    monkeypatch.setattr(spawn._ExecEnv, "__init__", init)
    probes = _count_probes(monkeypatch)
    spawn._exec_envs.clear()
    for _ in range(3):
        for cwd in (None, str(tmp_path)):
            done = run_command("cat /dev/null", table=ProcessTable(), env=env,
                               cwd=cwd)
            assert (done.returncode, done.direct) == (0, True)
    assert built == probes == [None, str(tmp_path)]
    env["REPRO_CHANGED"] = "1"  # changed in place: rebuilt, not stale
    done = run_command("env", table=ProcessTable(), env=env)
    assert b"REPRO_CHANGED=1" in done.stdout.splitlines()
    assert len(built) == 3


@pytest.mark.parametrize("leg", ["popen", "cwd", "stdin", "stream", "posix"])
def test_failed_probe_keeps_the_shell(posix, leg, monkeypatch):
    # A shell that cannot report its environment (no /proc, a failed
    # start) runs every plain line itself, with the same outcome.
    probes = _count_probes(monkeypatch)
    monkeypatch.setattr(spawn, "_PROBE", "exit 3 {} /proc/self/environ")
    spawn._exec_envs.clear()
    try:
        done, again = (run_command("expr 40 + 2", table=ProcessTable(),
                                   **_legs(posix)[leg]) for _ in range(2))
    finally:
        spawn._exec_envs.clear()
    assert len(probes) == 1
    assert [(d.returncode, d.stdout, d.stderr, d.direct) for d in (done, again)] == [
        (0, b"42\n", b"", False)] * 2
