"""Differential: a plain job line exec'd directly behaves as the shell.

``run_command`` execs a line with no shell syntax itself (``direct``),
with the environment the shell reported it would pass.  Here every
generated line runs twice under dash, bash and bash linked as ``sh``:
as ``cmd`` (direct where it can be) and as ``cmd #`` (the comment keeps
the shell).  The job is a probe program that prints its argv and its
sorted environment, so stdout, stderr and the exit code must be the
same byte for byte, apart from the ``_`` bash sets to the program's
path (and the comment in a line bash quotes in a syntax error).
"""

import os
import shutil
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.backends import spawn
from repro.core.backends.spawn import (
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    run_command,
    spawn_supported,
)

pytestmark = pytest.mark.skipif(
    not spawn_supported() or not os.path.exists("/proc/self/environ"),
    reason="needs posix_spawn and /proc",
)

PROBE = "repro-probe"
PROBE_SOURCE = f"""#!{sys.executable} -IS
import os, sys
sys.stdout.buffer.write(b"\\0".join(
    [repr(sys.argv).encode()]
    + sorted(k + b"=" + v for k, v in os.environb.items())))
"""

#: First words the shell runs itself and that run no other program.
BUILTINS = ["echo", "printf", "true", "false", ":", "test", "pwd", "type",
            "cd", "export", "unset", "shift", "getopts", "hash", "alias",
            "umask", "read", "return", "break", "continue", "local"]
RESERVED = ["if", "then", "else", "elif", "fi", "do", "done", "case", "esac",
            "while", "until", "for", "in", "function", "select"]
ASSIGNMENTS = ["A=1", "x=%@", "PATH=/nowhere", "=x"]

blanks = st.text(alphabet=" \t", max_size=2)
separators = st.text(alphabet=" \t", min_size=1, max_size=2)
#: Later words: anything in the plain alphabet, ``--`` and ``%``/``@``/``=``.
words = st.one_of(
    st.sampled_from(["--", "%", "@", "=", "a=b", "%d", "x@y", "-"]),
    st.text(alphabet=spawn._PLAIN.strip(" \t"), min_size=1, max_size=6),
)


@st.composite
def lines(draw, probe_path):
    first = draw(st.sampled_from([PROBE, probe_path])
                 | st.sampled_from(BUILTINS + RESERVED))
    head = draw(st.lists(st.sampled_from(ASSIGNMENTS), max_size=2)) + [first]
    rest = draw(st.lists(words, max_size=4))
    parts = []
    for word in head + rest:
        parts += [word, draw(separators)]
    return draw(blanks) + "".join(parts[:-1]) + draw(blanks)


#: Names a shell reads, resets, drops or acts on; "<job>" and "<link>"
#: stand for the job's directory and a symlink to it.
SPECIAL = {
    "PWD": ["/", "<job>", "<link>", ".", "/no/such"],
    "OLDPWD": ["/no/such", "<job>", "..", "rel"],
    "OPTIND": ["1", "7", "x"],
    "IFS": [":", " ", ""],
    "SHLVL": ["3", "x", "-1"],
    "PPID": ["1"],
    "RANDOM": ["4"],
    "LINENO": ["9"],
    "PS4": ["> "],
    "OPTERR": ["0"],
    "BASH_FUNC_f%%": ["() {  echo f\n}"],
    f"BASH_FUNC_{PROBE}%%": ["() {  echo shadowed\n}"],
    "BASH_ENV": ["/no/such"],
    "LC_ALL": ["xx_XX.bogus"],
    "LD_PRELOAD": ["/no/such.so"],
}
#: Names no shell variable can have, beside ordinary ones.
names = st.one_of(
    st.sampled_from(["A-B", "x.y", "1A", "a b", "é", "%", "REPRO_X"]),
    st.text(alphabet="abcXYZ_0-.%@ ", min_size=1, max_size=5),
)
values = st.text(alphabet=st.characters(exclude_categories=("Cs",),
                                        exclude_characters="\0"), max_size=8)


@st.composite
def environments(draw):
    """An environment whose values may hold a placeholder.  Each special
    name, ``PWD`` and ``SHLVL`` among them, is left out of most draws."""
    env = draw(st.dictionaries(names, values, max_size=3))
    chosen = draw(st.lists(st.sampled_from(sorted(SPECIAL)), max_size=4,
                           unique=True))
    return {**env, **{name: draw(st.sampled_from(SPECIAL[name])) for name in chosen}}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The probe program on ``PATH``, the job directories and the shells."""
    root = tmp_path_factory.mktemp("direct")
    (root / "bin").mkdir()
    probe = root / "bin" / PROBE
    probe.write_text(PROBE_SOURCE)
    probe.chmod(0o755)
    for name in ("job", "job/rel"):
        (root / name).mkdir()
    (root / "job-link").symlink_to(root / "job")
    (root / "here-link").symlink_to(os.getcwd())
    shells = {}
    for name in ("dash", "bash"):
        found = shutil.which(name)
        if found:
            shells[name] = found
    if "bash" in shells:
        (root / "sh").symlink_to(os.path.realpath(shells["bash"]))
        shells["bash-as-sh"] = str(root / "sh")
    assert spawn._plain_argv(str(probe)) == [str(probe)]
    reapers = LiveReaper()
    with pytest.MonkeyPatch.context() as mp:
        # posix_spawnp searches this process's PATH: the direct exec on
        # the posix leg needs the job's PATH to be that one.
        mp.setenv("PATH", f"{root / 'bin'}{os.pathsep}{os.environ['PATH']}")
        yield SimpleNamespace(root=root, probe=str(probe), shells=shells,
                              reapers=reapers)
    reapers.close()


def _run(world, shell, leg, line, env):
    """``(returncode, stdout entries, stderr, timed_out)`` of ``line``,
    and whether it ran without the shell."""
    if leg == "posix":
        launcher = SpawnLauncher(shell, env=env)
        try:
            done = run_command(line, table=ProcessTable(), launcher=launcher,
                               reaper=world.reapers.get(), shell=shell,
                               timeout=20)
        finally:
            launcher.close()
    else:
        done = run_command(line, table=ProcessTable(), shell=shell, env=env,
                           cwd=str(world.root / "job"), timeout=20)
    entries = done.stdout.split(b"\0")
    if spawn._shell_program(shell, []) == "bash":
        entries = [e for e in entries if not e.startswith(b"_=")]
    return (done.returncode, entries, done.stderr, done.timed_out), done.direct


def _resolve(env, world, leg):
    """``env`` with its placeholders naming the leg's job directory."""
    job, link = ((str(world.root / "job"), str(world.root / "job-link"))
                 if leg != "posix" else (os.getcwd(), str(world.root / "here-link")))
    resolved = {k: v.replace("<job>", job).replace("<link>", link)
                for k, v in env.items()}
    resolved["PATH"] = os.environ["PATH"]
    return resolved


SHELLS = ["dash", "bash", "bash-as-sh"]


@pytest.mark.parametrize("shell", SHELLS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), env=environments(),
       leg=st.sampled_from(["fork_exec", "posix"]))
def test_plain_line_runs_as_the_shell_would(world, shell, data, env, leg):
    if shell not in world.shells:
        pytest.skip(f"{shell} is not installed")
    line = data.draw(lines(world.probe), label="line")
    env = _resolve(env, world, leg)
    got, direct = _run(world, world.shells[shell], leg, line, env)
    event("direct exec" if direct else "shell")
    (rc, out, err, timed_out), forced = _run(world, world.shells[shell], leg,
                                             line + " #", env)
    # bash quotes a line it cannot parse, comment and all.
    err = err.replace(f"`{line} #'".encode(), f"`{line}'".encode())
    assert forced is False
    assert got == (rc, out, err, timed_out)


@pytest.mark.parametrize("shell", SHELLS)
@pytest.mark.parametrize("leg", ["fork_exec", "posix"])
def test_the_differential_takes_the_direct_exec(world, shell, leg):
    # The comparison above means something only if a plain probe line
    # does skip the shell.
    if shell not in world.shells:
        pytest.skip(f"{shell} is not installed")
    env = _resolve({"PWD": "<link>"}, world, leg)
    got, direct = _run(world, world.shells[shell], leg, f"{PROBE} a  %@ --", env)
    want, _ = _run(world, world.shells[shell], leg, f"{PROBE} a  %@ -- #", env)
    assert direct is True
    assert got == want
