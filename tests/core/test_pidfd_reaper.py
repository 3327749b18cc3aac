"""pidfd reap-ladder tests: the fast leg, and every rung of the fallback.

The reaper collects exit statuses either via ``os.pidfd_open`` + the
shared selector (one epoll wakeup per exit; Linux >= 5.3) or by polling
``waitpid(WNOHANG)`` on processes whose pipes have closed.  The ladder is
probed at call time through ``os``, so these tests force each rung by
monkeypatching ``os.pidfd_open`` and assert results are identical on all
of them.
"""

import errno
import os
import platform

import pytest

from repro.core.backends.reaper import PipeReaper, pidfd_supported
from repro.core.backends.spawn import SpawnLauncher, spawn_supported

pytestmark = pytest.mark.skipif(
    not spawn_supported(), reason="posix_spawn unavailable on this platform"
)


def _kernel_at_least(major: int, minor: int) -> bool:
    if platform.system() != "Linux":
        return False
    try:
        parts = platform.release().split(".")
        return (int(parts[0]), int(parts[1])) >= (major, minor)
    except (ValueError, IndexError):
        return False


def _run_batch(reaper, launcher, commands):
    """Spawn every command through the reaper; return comparable results."""
    handles = []
    for command in commands:
        pid, out_r, err_r = launcher.spawn(command)
        handles.append(reaper.register(pid, out_r, err_r))
    results = []
    for handle in handles:
        assert handle.wait(10), "reaper failed to collect a job"
        results.append(
            (handle.returncode, bytes(handle.stdout_buf), bytes(handle.stderr_buf))
        )
    return results


BATCH = [
    "echo one",
    "echo two-err >&2; exit 3",
    "printf no-newline",
    "kill -TERM $$",
]
EXPECTED = [
    (0, b"one\n", b""),
    (3, b"", b"two-err\n"),
    (0, b"no-newline", b""),
    (-15, b"", b""),
]


@pytest.fixture
def launcher():
    launcher = SpawnLauncher()
    yield launcher
    launcher.close()


# ------------------------------------------------------------- pidfd leg
@pytest.mark.skipif(
    not _kernel_at_least(5, 3), reason="pidfd_open needs Linux >= 5.3"
)
@pytest.mark.skipif(
    not pidfd_supported(), reason="pidfd_open denied (seccomp?)"
)
def test_pidfd_leg_used_and_correct(launcher):
    reaper = PipeReaper()
    try:
        assert _run_batch(reaper, launcher, BATCH) == EXPECTED
        assert reaper.pidfd_enabled, "kernel supports pidfd but leg unused"
    finally:
        reaper.close()


@pytest.mark.skipif(
    not _kernel_at_least(5, 3), reason="pidfd_open needs Linux >= 5.3"
)
@pytest.mark.skipif(
    not pidfd_supported(), reason="pidfd_open denied (seccomp?)"
)
def test_pidfd_collects_without_polling_delay(launcher):
    # One exit must land well inside a zombie-poll period: with pidfds
    # the wakeup is the exit itself, not a poll tick.
    reaper = PipeReaper()
    try:
        pid, out_r, err_r = launcher.spawn("true")
        handle = reaper.register(pid, out_r, err_r)
        assert handle.wait(10)
        assert handle.returncode == 0
        assert reaper.pidfd_enabled
    finally:
        reaper.close()


# -------------------------------------------------------- fallback rungs
def test_fallback_when_pidfd_open_missing(monkeypatch, launcher):
    if hasattr(os, "pidfd_open"):
        monkeypatch.delattr(os, "pidfd_open")
    reaper = PipeReaper()
    try:
        assert _run_batch(reaper, launcher, BATCH) == EXPECTED
        assert not reaper.pidfd_enabled
    finally:
        reaper.close()


def test_fallback_when_pidfd_open_raises(monkeypatch, launcher):
    def denied(pid, flags=0):
        raise OSError(errno.ENOSYS, "pidfd_open not available")

    monkeypatch.setattr(os, "pidfd_open", denied, raising=False)
    reaper = PipeReaper()
    try:
        assert _run_batch(reaper, launcher, BATCH) == EXPECTED
        # The first failure disables the leg for the whole reaper...
        assert not reaper.pidfd_enabled
    finally:
        reaper.close()


def test_first_oserror_disables_leg_permanently(monkeypatch, launcher):
    calls = []

    def denied(pid, flags=0):
        calls.append(pid)
        raise OSError(errno.EPERM, "seccomp says no")

    monkeypatch.setattr(os, "pidfd_open", denied, raising=False)
    reaper = PipeReaper()
    try:
        assert _run_batch(reaper, launcher, ["echo a", "echo b", "echo c"]) == [
            (0, b"a\n", b""), (0, b"b\n", b""), (0, b"c\n", b""),
        ]
        # ENOSYS/EPERM are process-wide conditions: probed exactly once.
        assert len(calls) == 1
    finally:
        reaper.close()


def test_forced_fallback_matches_pidfd_results(launcher):
    # Same workload through both legs of a real (unmonkeypatched) ladder.
    forced = PipeReaper(use_pidfd=False)
    auto = PipeReaper()
    try:
        assert (
            _run_batch(forced, launcher, BATCH)
            == _run_batch(auto, launcher, BATCH)
            == EXPECTED
        )
        assert not forced.pidfd_enabled
    finally:
        forced.close()
        auto.close()

