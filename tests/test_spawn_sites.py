"""Process spawning lives in one module: ``core/backends/spawn.py``.

Every layer that runs a subprocess — the local backend, the dispatcher
shard workers, the remote transport — goes through its ``run_command``.
A second copy of spawn → collect → timeout → kill would grow its own
kill-by-group, cancel race and ``--nice`` handling, so the calls that
start or signal a job
may appear nowhere else under ``src/``.  ``run_command`` launches through
``fork_exec`` itself, so the ``subprocess.Popen`` wrapper appears nowhere
at all.

The posix_spawn leg (``SpawnLauncher`` + ``LiveReaper``) is built only
by its one remaining caller, the local backend under ``--spawn-path
posix`` (``spawn.py`` defines it), so no new caller — the shard workers
included — can grow back onto it.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = SRC / "repro" / "core" / "backends"
HOME = BACKENDS / "spawn.py"
CALLS = ("fork_exec(", "os.posix_spawn(", "os.posix_spawnp(", "os.killpg(",
         "os.setpriority(")
WRAPPER = ("subprocess.Popen(",)
POSIX_LEG = ("SpawnLauncher(", "LiveReaper(")
POSIX_LEG_HOMES = {BACKENDS / name for name in ("spawn.py", "local.py")}


def _offenders(calls, allowed):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in allowed:
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for call in calls:
                if call in line:
                    found.append(f"{path.relative_to(SRC)}:{lineno}: {call}")
    return found


def test_spawn_calls_only_in_spawn_module():
    assert HOME.is_file()
    offenders = _offenders(CALLS, {HOME})
    assert not offenders, "spawn calls outside core/backends/spawn.py:\n" + "\n".join(offenders)


def test_no_popen_anywhere():
    offenders = _offenders(WRAPPER, set())
    assert not offenders, "subprocess.Popen under src/:\n" + "\n".join(offenders)


def test_posix_leg_built_only_by_its_callers():
    assert all(path.is_file() for path in POSIX_LEG_HOMES)
    offenders = _offenders(POSIX_LEG, POSIX_LEG_HOMES)
    assert not offenders, (
        "posix_spawn leg built outside core/backends/{spawn,local}.py:\n"
        + "\n".join(offenders)
    )
