#!/usr/bin/env python3
"""The engine against its own runner on ``true`` jobs, in one process.

    PYTHONPATH=src python3 tools/runner_gap.py --jobs 2000 --rounds 5

Runs N ``true # {}`` jobs through ``cli.main -jJ --joblog`` (the
``true_spawn`` shape), then the same N jobs through ``run_command``
from J bare threads, alternating the two for ``--rounds`` rounds.  For
each side it prints the median jobs/s, coordinator CPU µs per job
(``RUSAGE_SELF``) and child CPU µs per job (``RUSAGE_CHILDREN``); for
the engine also the share of its coordinator CPU spent on the caller's
thread (``time.thread_time()`` around ``cli.main``), then the
engine/runner ratios.  Stdlib and ``repro`` only.
"""

import argparse
import os
import resource
import statistics
import tempfile
import threading
import time

from repro.core import cli
from repro.core.backends.spawn import ProcessTable, run_command


def _usage() -> tuple[float, float, float]:
    """(wall s, this process's CPU s, waited-for children's CPU s)."""
    me, kids = (resource.getrusage(w) for w in
                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return (time.perf_counter(), me.ru_utime + me.ru_stime,
            kids.ru_utime + kids.ru_stime)


def engine(n: int, j: int, tmp: str) -> float:
    """One engine run; returns the caller's thread CPU seconds."""
    joblog = os.path.join(tmp, "joblog.tsv")
    argv = [f"-j{j}", "--joblog", joblog, "true", "#", "{}",
            ":::", *map(str, range(n))]
    t0 = time.thread_time()
    rc = cli.main(argv)
    caller = time.thread_time() - t0
    os.remove(joblog)
    if rc:
        raise SystemExit(f"cli.main returned {rc}")
    return caller


def runner(n: int, j: int) -> None:
    """The same jobs through ``run_command`` from ``j`` bare threads."""
    table, seqs, failed = ProcessTable(), iter(range(n)), []

    def work() -> None:
        for i in seqs:  # a shared iterator: each seq is taken once
            if run_command(f"true # {i}", table=table).returncode:
                failed.append(i)

    threads = [threading.Thread(target=work) for _ in range(j)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failed:
        raise SystemExit(f"{len(failed)} runner jobs failed")


def measure(side, n: int) -> dict:
    """Run ``side()`` once; its rates per job."""
    w0, s0, c0 = _usage()
    caller = side()
    w1, s1, c1 = _usage()
    row = {"jobs/s": n / (w1 - w0), "coord_us/job": (s1 - s0) / n * 1e6,
           "child_us/job": (c1 - c0) / n * 1e6}
    if caller is not None:
        row["caller_share"] = caller / (s1 - s0)
    return row


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=2000, help="jobs per run")
    ap.add_argument("-j", type=int, default=8, help="slots / bare threads")
    ap.add_argument("--rounds", type=int, default=5, help="runs per side")
    args = ap.parse_args(argv)
    n, j = args.jobs, args.j
    eng, run = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.rounds):
            eng.append(measure(lambda: engine(n, j, tmp), n))
            run.append(measure(lambda: runner(n, j), n))
    e, r = ({k: statistics.median(row[k] for row in rows) for k in rows[0]}
            for rows in (eng, run))
    for name, row in (("engine", e), ("runner", r), ("ratio", {k: e[k] / r[k] for k in r})):
        print(f"{name:<7}" + "  ".join(f"{k} {v:.3f}" for k, v in row.items()))


if __name__ == "__main__":
    main()
