"""The spawn ceiling: how fast this box can start and reap processes at all.

``K`` forked spawner processes, each pinned to its own CPU, run a bare
``os.posix_spawn("/bin/true")`` + ``waitpid`` loop — no shell, no pipes,
no Python objects per job — for the same wall-clock window; the ceiling
is the best aggregate rate over K = 1..nproc.  A serial loop alone
(K = 1) under-reports on two or more cores: the engine's own concurrent
spawners beat it, and an "efficiency" above 1 means nothing.  Unpinned,
two spawners forked from one parent often share a core for the whole
window and the K = 2 rate halves at random.
"""

from __future__ import annotations

import os
import struct
import time

TRUE = "/bin/true"


def _spawn_until(deadline: float) -> int:
    count = 0
    while time.monotonic() < deadline:
        pid = os.posix_spawn(TRUE, [TRUE], {})
        os.waitpid(pid, 0)
        count += 1
    return count


def spawn_rate(k: int, seconds: float) -> float:
    """Aggregate spawns/s of ``k`` concurrent spawner processes.

    The caller must be single-threaded (plain ``fork``); the harness is.
    """
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.monotonic() + 0.005 * k  # all k forked before any starts
    deadline = begin + seconds
    readers = []
    for _ in range(k):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(r)
                os.sched_setaffinity(0, {cpus[len(readers) % len(cpus)]})
                while time.monotonic() < begin:
                    pass
                os.write(w, struct.pack("<q", _spawn_until(deadline)))
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        readers.append((pid, r))
    total = 0
    for pid, r in readers:
        data = os.read(r, 8)
        os.close(r)
        _pid, status = os.waitpid(pid, 0)
        if status != 0 or len(data) != 8:
            raise RuntimeError(f"spawner {pid} failed (status {status})")
        total += struct.unpack("<q", data)[0]
    return total / seconds


def ceiling_curve(seconds_per_k: float) -> dict[int, float]:
    """Aggregate rate at K = 1, 2, every further power of two up to the
    CPUs this process may use, and that CPU count itself."""
    nproc = len(os.sched_getaffinity(0))
    ks = {1, 2, nproc} | {1 << i for i in range(nproc.bit_length()) if 1 << i <= nproc}
    return {k: spawn_rate(k, seconds_per_k) for k in sorted(ks)}
