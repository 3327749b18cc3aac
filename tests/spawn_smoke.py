"""Plain-Python smoke run of every ``run_command`` leg; needs no pytest.

``run_command`` launches through ``_posixsubprocess.fork_exec``, whose
argument list differs between CPython versions, in this process and in
forked dispatcher shard workers, so run this under each interpreter the
package supports::

    PYTHONPATH=src python3.10 tests/spawn_smoke.py

It prints one line per case and exits 1 if any outcome is wrong.
"""

from __future__ import annotations

import errno
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro.core.backends.pool import DispatcherPool
from repro.core.backends.spawn import (
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    run_command,
)

MIXED = "echo out; echo err >&2; exit 3"


def main() -> int:
    launcher, reapers = SpawnLauncher(), LiveReaper()
    workdir = os.path.realpath(tempfile.mkdtemp())
    streamed: list[str] = []
    posix = dict(launcher=launcher, reaper=reapers.get())
    # The shell's own report of a program it cannot find: what a plain
    # command whose direct exec failed must give once retried.
    missing = run_command("repro-no-such-program #", table=ProcessTable())
    # name → (command, run_command keywords, expected outcome); the last
    # field of an outcome is ``direct``, a plain command exec'd unshelled.
    cases = {
        "posix": (MIXED, posix, (3, b"out\n", b"err\n", False, False)),
        "popen": (MIXED, {}, (3, b"out\n", b"err\n", False, False)),
        "cwd": ("pwd", dict(cwd=workdir),
                (0, f"{workdir}\n".encode(), b"", False, False)),
        "stdin": ("cat; exit 3", dict(stdin="a\nb\n"),
                  (3, b"a\nb\n", b"", False, False)),
        "stream": (MIXED, dict(stream=streamed.append),
                   (3, b"out\n", b"err\n", False, False)),
        "timeout": ("sleep 30", dict(timeout=0.2), (-15, b"", b"", True, True)),
        "direct": ("cat", dict(stdin="a\n"), (0, b"a\n", b"", False, True)),
        "direct posix": ("sleep 0", posix, (0, b"", b"", False, True)),
        "shell retry": ("repro-no-such-program", {},
                        (127, b"", missing.stderr, False, False)),
        "exec failure": ("true", dict(shell="/no/such/shell"),
                         (errno.ENOENT, "/no/such/shell")),
        "cwd failure": ("true", dict(cwd="/no/such/dir"),
                        (errno.ENOENT, "/no/such/dir")),
    }
    failed = 0
    try:
        for name, (command, kw, expected) in cases.items():
            try:
                done = run_command(command, table=ProcessTable(), **kw)
                got: tuple = (done.returncode, done.stdout, done.stderr,
                              done.timed_out, done.direct)
            except OSError as exc:
                got = (exc.errno, exc.filename)
            if name == "stream" and "".join(streamed) != "out\n":
                got += ("streamed", "".join(streamed))
            ok = got == expected
            failed += not ok
            print(f"{'ok' if ok else 'FAIL':4} {name:12} {got!r}")
        # Two forked shard workers run the same leg from their job threads.
        pool = DispatcherPool(2, cwd=workdir)
        pool.start()
        try:
            with ThreadPoolExecutor(4) as threads:
                replies = list(threads.map(pool.run, [MIXED, "pwd"] * 2))
        finally:
            pool.close()
        got = [(r.kind, r.returncode, r.stdout, r.stderr) for r in replies]
        ok = got == [("done", 3, b"out\n", b"err\n"),
                     ("done", 0, f"{workdir}\n".encode(), b"")] * 2
        failed += not ok
        print(f"{'ok' if ok else 'FAIL':4} {'two shards':12} {got!r}")
    finally:
        reapers.close()
        launcher.close()
        os.rmdir(workdir)
    total = len(cases) + 1
    print(f"{sys.version.split()[0]}: {total - failed}/{total} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
