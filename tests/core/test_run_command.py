"""``run_command``: the one subprocess runner, its legs and its helpers.

Every caller (local backend, transport, channel) reaches a subprocess
through ``run_command``; shard workers share its launcher, reaper rule
and kill/nice helpers.  The legs must agree byte for byte, and the one
dead-reaper rule — a fresh ``PipeReaper`` for the next job — is forced
here on each of the three reaper owners.
"""

import itertools
import time

import pytest

from repro import Parallel
from repro.core.backends.pool import DispatcherPool
from repro.core.backends.reaper import PipeReaper
from repro.core.backends.spawn import (
    REAPER_GONE,
    LiveReaper,
    ProcessTable,
    SpawnLauncher,
    decode_output,
    run_command,
    spawn_supported,
)
from repro.remote.hosts import HostSpec
from repro.remote.transport import LocalTransport

pytestmark = pytest.mark.skipif(
    not spawn_supported(), reason="posix_spawn unavailable on this platform"
)

MIXED = "echo out; echo err >&2; exit 3"


@pytest.fixture
def posix():
    launcher, reapers = SpawnLauncher(), LiveReaper()
    yield launcher, reapers
    reapers.close()
    launcher.close()


def _outcome(done):
    return done.returncode, done.stdout, done.stderr, done.timed_out


# ------------------------------------------------------------------- legs
def test_every_leg_gives_the_same_outcome(posix, tmp_path):
    launcher, reapers = posix
    table = ProcessTable()
    legs = {
        "posix": dict(launcher=launcher, reaper=reapers.get()),
        "no launcher": {},
        "cwd": dict(launcher=launcher, cwd=str(tmp_path)),
        "stdin": dict(launcher=launcher, stdin=""),
    }
    outcomes = {name: _outcome(run_command(MIXED, table=table, **kw))
                for name, kw in legs.items()}
    assert set(outcomes.values()) == {(3, b"out\n", b"err\n", False)}


def test_popen_leg_feeds_stdin_and_honours_cwd(tmp_path):
    done = run_command("cat; pwd", table=ProcessTable(), stdin="a\nb\n",
                       cwd=str(tmp_path))
    assert done.stdout == f"a\nb\n{tmp_path}\n".encode()


def test_timestamps_are_ordered(posix):
    launcher, reapers = posix
    done = run_command("true", table=ProcessTable(), launcher=launcher,
                       reaper=reapers.get())
    assert done.start <= done.spawned <= done.end
    assert done.pid > 0


@pytest.mark.parametrize("leg", ["posix", "popen"])
def test_timeout_kills_the_group(posix, leg):
    launcher, reapers = posix
    kw = dict(launcher=launcher, reaper=reapers.get()) if leg == "posix" else {}
    t0 = time.time()
    done = run_command("sleep 30", table=ProcessTable(), timeout=0.2, **kw)
    assert done.timed_out
    assert done.returncode == -15
    assert time.time() - t0 < 5


@pytest.mark.parametrize("leg", ["posix", "popen"])
def test_spawn_failure_raises_oserror(posix, leg, tmp_path):
    _, reapers = posix
    missing = str(tmp_path / "no-such-shell")
    launcher = SpawnLauncher(missing) if leg == "posix" else None
    try:
        with pytest.raises(OSError):
            run_command("true", table=ProcessTable(), launcher=launcher,
                        reaper=reapers.get(), shell=missing)
    finally:
        if launcher is not None:
            launcher.close()


def test_cancel_before_registration_still_kills(posix):
    launcher, reapers = posix
    table = ProcessTable()
    assert table.kill_all() == 0  # the cancel lands before the job exists
    t0 = time.time()
    done = run_command("sleep 30", table=table, launcher=launcher,
                       reaper=reapers.get())
    assert done.returncode == -15
    assert time.time() - t0 < 5


def test_reaper_closed_before_register_collects_inline(posix):
    launcher, _ = posix
    reaper = PipeReaper()
    reaper.close()
    done = run_command("exit 3", table=ProcessTable(), launcher=launcher,
                       reaper=reaper)
    assert (done.returncode, done.stdout, done.stderr) == (3, b"", REAPER_GONE)


def test_decode_output_matches_popen_text_mode():
    assert decode_output(b"a\r\nb\rc\n", "utf-8") == "a\nb\nc\n"
    with pytest.raises(UnicodeDecodeError):
        decode_output(b"\xff", "utf-8")


# -------------------------------------------------- the dead-reaper rule
def _close_on_register(monkeypatch, n):
    """The n-th ``PipeReaper.register`` call (per process) closes its
    reaper first: the job lands in the closed-after-pick window, and
    every later job must be served by a fresh reaper."""
    real = PipeReaper.register
    calls = itertools.count(1)

    def register(self, *args, **kwargs):
        if next(calls) == n:
            self.close()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PipeReaper, "register", register)


#: Job 3 writes nothing, so its inline collection is deterministic.
QUIET_THIRD = "test {} = 3 || echo out-{}"


def test_dead_reaper_local_backend(monkeypatch):
    _close_on_register(monkeypatch, 3)
    summary = Parallel(QUIET_THIRD, jobs=1, keep_order=True,
                       keep_results="all").run(range(1, 7))
    by_seq = {r.seq: r for r in summary.results}
    assert by_seq[3].stderr == REAPER_GONE.decode()
    for seq in (1, 2, 4, 5, 6):
        assert (by_seq[seq].exit_code, by_seq[seq].stdout) == (0, f"out-{seq}\n")


def test_dead_reaper_transport_channel(monkeypatch, tmp_path):
    _close_on_register(monkeypatch, 3)
    host = HostSpec("n1", 1)
    transport = LocalTransport(root=str(tmp_path / "hosts"))
    channel = transport.open_channel(host)
    try:
        workdir = transport.ensure_workdir(host, None)
        results = {
            i: channel.execute(host, QUIET_THIRD.replace("{}", str(i)),
                               workdir=workdir)
            for i in range(1, 7)
        }
    finally:
        channel.close()
        transport.close()
    assert results[3].stderr == REAPER_GONE.decode()
    for i in (1, 2, 4, 5, 6):
        assert (results[i].exit_code, results[i].stdout) == (0, f"out-{i}\n")


def test_dead_reaper_dispatcher_worker(monkeypatch):
    # The worker forks after the patch, so its reaper inherits it.
    _close_on_register(monkeypatch, 3)
    pool = DispatcherPool(1)
    pool.start()
    try:
        replies = {i: pool.run(QUIET_THIRD.replace("{}", str(i)))
                   for i in range(1, 7)}
    finally:
        pool.close()
    assert replies[3].stderr == REAPER_GONE
    for i in (1, 2, 4, 5, 6):
        assert (replies[i].kind, replies[i].returncode, replies[i].stdout) == (
            "done", 0, f"out-{i}\n".encode(),
        )
