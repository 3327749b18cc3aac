"""Shared helpers for the paper-figure benchmarks.

Every ``test_*.py`` here regenerates one of the paper's tables/figures,
prints the rows/series, writes them under ``benchmarks/results/``, and
asserts the paper's *shape* claims (who wins, saturation points,
crossovers).  Run with::

    PYTHONPATH=src pytest benchmarks --ignore=benchmarks/hthpc
    PYTHONPATH=src pytest benchmarks --ignore=benchmarks/hthpc --benchmark-disable

The second form skips pytest-benchmark's timing and only checks the
claims.  Engine performance is measured by the separate ``hthpc``
benchmark: ``PYTHONPATH=src python -m benchmarks.hthpc.run``.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture()
def report_file():
    """A writer that saves rendered experiment output and echoes it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return write


def run_once(benchmark, func):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo every regenerated table/figure into the terminal output.

    Benchmark prints are captured by pytest; this hook replays the saved
    experiment reports so ``pytest benchmarks --ignore=benchmarks/hthpc |
    tee ...`` leaves a self-contained record of the paper-vs-measured rows.
    """
    if not os.path.isdir(RESULTS_DIR):
        return
    tr = terminalreporter
    tr.section("regenerated paper tables and figures (benchmarks/results/)")
    for name in sorted(os.listdir(RESULTS_DIR)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(RESULTS_DIR, name)
        with open(path, "r", encoding="utf-8") as fh:
            tr.write_line("")
            tr.write_line(f"--- {name} ---")
            for line in fh.read().rstrip("\n").splitlines():
                tr.write_line(line)
