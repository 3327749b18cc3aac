"""Fixtures for the GNU Parallel conformance suite.

Every case runs ``pyparallel`` (this repo's CLI) and asserts against a
hardcoded expectation, so the suite is meaningful on any machine.  When
a real ``parallel`` binary is on PATH, the same invocation additionally
runs through GNU Parallel and the two outputs are compared — the
differential half of the contract.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Source tree the subprocess CLI imports from.
SRC_DIR = str(Path(repro.__file__).parents[1])

GNU_PARALLEL = shutil.which("parallel")

requires_gnu_parallel = pytest.mark.skipif(
    GNU_PARALLEL is None, reason="GNU parallel not on PATH"
)


def run_pyparallel(args, stdin=None, timeout=60):
    """Run this repo's CLI as a subprocess; returns CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.core.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=timeout, env=env,
    )


def run_gnu_parallel(args, stdin=None, timeout=60):
    """Run the real GNU Parallel with flags aligned to our defaults."""
    assert GNU_PARALLEL is not None
    return subprocess.run(
        [GNU_PARALLEL, "--will-cite", *args],
        input=stdin, capture_output=True, text=True, timeout=timeout,
    )


#: Every conformance case runs once per spawn path: the default ("auto",
#: in-process jobs on Popen), Popen pinned, and the posix_spawn + reaper
#: leg must be behaviourally indistinguishable at the CLI boundary.
SPAWN_PATHS = ("auto", "popen", "posix")


@pytest.fixture(params=SPAWN_PATHS)
def pyparallel(request):
    spawn_path = request.param

    def run(args, stdin=None, timeout=60):
        return run_pyparallel(
            ["--spawn-path", spawn_path, *args], stdin=stdin, timeout=timeout
        )

    return run


@pytest.fixture
def gnu_parallel():
    if GNU_PARALLEL is None:
        pytest.skip("GNU parallel not on PATH")
    return run_gnu_parallel
