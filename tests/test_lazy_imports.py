"""The CLI entry path imports only what a default run uses.

The dispatcher pool (and with it ``multiprocessing``), the tracer and
``MultiprocessBackend`` (``concurrent.futures``) load on first use, so a
plain ``pyparallel`` run does not pay their import time or memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_deferred_backend_still_importable_from_the_package():
    from repro.core.backends import MultiprocessBackend
    from repro.core.backends.multiprocess import MultiprocessBackend as direct

    assert MultiprocessBackend is direct
