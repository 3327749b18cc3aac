"""The CLI entry path imports only what a default run uses.

The dispatcher pool (and with it ``multiprocessing``), the tracer and
``MultiprocessBackend`` (``concurrent.futures``) load on first use, so a
plain ``pyparallel`` run does not pay their import time or memory.

A run loads only the engine it dispatches on: no simulator, numpy or
fault injector before (or after) its jobs, whichever backend it takes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("repro.core.backends.pool", "repro.obs", "multiprocessing",
            "concurrent.futures")


def test_entry_path_defers_heavy_imports():
    code = ("import sys, repro.core.cli, repro; "
            f"print([m for m in {DEFERRED!r} if m in sys.modules])")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


NEVER_LOADED = ("numpy", "repro.sim", "repro.faults", "repro.cluster",
             "repro.simengine", "repro.storage.datasets",
             "repro.storage.filesystem", "repro.storage.rsync",
             "repro.storage.staging")

RUNS = {
    "callable": """
        from repro import Parallel
        assert Parallel(str.upper, jobs=2).run(["a", "b"]).ok
    """,
    "cli-joblog": """
        from repro.core import cli
        assert cli.main(["--joblog", "j.log", "true", ":::", "a", "b"]) == 0
    """,
    "remote-staging": """
        from repro.core import cli
        with open("in.txt", "w") as fh:
            fh.write("x")
        assert cli.main(["-S", "1/h1", "--transferfile", "{}",
                         "--return", "{}.out", "--cleanup",
                         "cat {} > {}.out", ":::", "in.txt"]) == 0
        assert open("in.txt.out").read() == "x"
    """,
    "fault-plan": """
        from repro.core import cli
        assert cli.main(["--fault-plan", "{}", "true", ":::", "a"]) == 0
    """,
}


def modules_after(run: str, cwd: Path) -> set[str]:
    """The watched modules loaded after ``RUNS[run]`` in a fresh interpreter."""
    watched = NEVER_LOADED + ("repro.remote",)
    code = textwrap.dedent(RUNS[run]) + (
        "import json, sys\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize("run, allowed", [
    ("callable", set()),
    ("cli-joblog", set()),
    ("remote-staging", {"repro.remote"}),
])
def test_run_loads_only_its_dispatch_engine(run, allowed, tmp_path):
    assert modules_after(run, tmp_path) <= allowed


def test_fault_plan_run_loads_the_fault_injector(tmp_path):
    # Positive control: the watch list sees a module a run does load.
    assert "repro.faults" in modules_after("fault-plan", tmp_path)


def test_deferred_backend_still_importable_from_the_package():
    from repro.core.backends import MultiprocessBackend
    from repro.core.backends.multiprocess import MultiprocessBackend as direct

    assert MultiprocessBackend is direct
