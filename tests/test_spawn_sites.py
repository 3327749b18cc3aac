"""Process spawning lives in one module: ``core/backends/spawn.py``.

Every layer that runs a subprocess goes through its ``run_command`` (or,
for the shard workers, its launcher and helpers).  A second copy of
spawn → collect → timeout → kill would grow its own kill-by-group, cancel
race and ``--nice`` handling, so the calls that start or signal a job
may appear nowhere else under ``src/``.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HOME = SRC / "repro" / "core" / "backends" / "spawn.py"
CALLS = ("subprocess.Popen(", "os.posix_spawn(", "os.killpg(", "os.setpriority(")


def test_spawn_calls_only_in_spawn_module():
    assert HOME.is_file()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == HOME:
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for call in CALLS:
                if call in line:
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}: {call}")
    assert not offenders, "spawn calls outside core/backends/spawn.py:\n" + "\n".join(offenders)
