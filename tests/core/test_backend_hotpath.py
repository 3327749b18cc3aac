"""Hot-path backend changes: session isolation, env caching, throttling."""

import os

import pytest

from repro import Options, Parallel
from repro.core.backends.local import LocalShellBackend
from repro.core import scheduler
from repro.core.job import Job
from repro.core.scheduler import _MemAvailableProbe


# ----------------------------------------------------- start_new_session
@pytest.mark.skipif(os.name != "posix", reason="POSIX sessions only")
def test_jobs_run_in_their_own_session():
    """Each job runs in its own session (and process group) — the property
    kill-by-group and --halt now depend on, now via start_new_session
    instead of a preexec_fn."""
    our_sid = os.getsid(0)
    summary = Parallel(
        'python3 -c "import os; print(os.getsid(0))" # {}',
        jobs=1,
    ).run(["x"])
    assert summary.ok
    job_sid = int(summary.results[0].stdout.strip())
    assert job_sid != our_sid  # detached from the dispatcher's session


@pytest.mark.skipif(not hasattr(os, "setpriority"), reason="needs setpriority")
def test_nice_applied_without_preexec_fn():
    summary = Parallel(
        'python3 -c "import os,time; time.sleep(0.3); print(os.nice(0))" # {}',
        jobs=1, nice=5,
    ).run(["x"])
    assert summary.ok
    assert summary.results[0].stdout.strip() == "5"


# --------------------------------------------------------- env per run
def test_env_reaches_jobs():
    summary = Parallel('echo "$REPRO_TEST_VAR-{}"', jobs=2,
                       env={"REPRO_TEST_VAR": "v1"}).run(["a", "b"])
    assert summary.ok
    assert sorted(r.stdout.strip() for r in summary.results) == ["v1-a", "v1-b"]


def test_merged_env_is_computed_once_per_run():
    b = LocalShellBackend()
    opts = Options(jobs=1, env={"K": "V"})
    b.prepare_run(opts)
    e1 = b._env_for(opts)
    e2 = b._env_for(opts)
    assert e1 is e2  # cached object, not a fresh os.environ copy per job
    assert e1["K"] == "V"
    # A different Options object (a new run) rebuilds the merge.
    opts2 = Options(jobs=1, env={"K": "W"})
    e3 = b._env_for(opts2)
    assert e3 is not e1 and e3["K"] == "W"


def test_empty_env_inherits_without_copy():
    b = LocalShellBackend()
    opts = Options(jobs=1, spawn_path="posix")
    b.prepare_run(opts)
    assert b._env_for(opts) is None  # None = inherit, zero copying
    # The posix_spawn leg gets one dict snapshot per run, never the live
    # os.environ mapping (which CPython would re-encode on every spawn).
    launcher_env = b._launcher.env
    assert type(launcher_env) is dict
    b.run_job(Job(1, ("x",), command="true"), 1, opts)
    assert b._launcher.env is launcher_env
    b.close()


def test_env_composes_with_fault_wrapper():
    from repro.faults import FaultPlan, FaultyBackend

    backend = FaultyBackend(LocalShellBackend(), FaultPlan())
    summary = Parallel('echo "$REPRO_FW-{}"', jobs=1, backend=backend,
                       env={"REPRO_FW": "wrapped"}).run(["z"])
    assert summary.ok
    assert summary.results[0].stdout.strip() == "wrapped-z"


# ------------------------------------------------------- memfree probe
@pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="needs procfs")
def test_mem_probe_reads_and_caches_fd():
    probe = _MemAvailableProbe()
    try:
        first = probe()
        assert 0 < first < 2**63
        fh = probe._fh
        assert fh is not None
        second = probe()
        assert probe._fh is fh  # same cached handle, rewound not reopened
        assert 0 < second < 2**63
    finally:
        probe.close()
    assert probe._fh is None


def test_mem_probe_unreadable_path_never_throttles():
    probe = _MemAvailableProbe(path="/nonexistent/meminfo")
    assert probe() == 2**63
    probe.close()


def test_memfree_throttle_uses_backoff_and_completes(monkeypatch):
    monkeypatch.setattr(scheduler, "_THROTTLE_POLL_MAX", 0.02)
    calls = [0]

    def probe():
        calls[0] += 1
        return 10 if calls[0] < 3 else 10**12

    opts = Options(jobs=1, memfree=1024, memfree_probe=probe)
    summary = Parallel("echo {}", options=opts).run(["a", "b"])
    assert summary.ok
    assert calls[0] >= 3
