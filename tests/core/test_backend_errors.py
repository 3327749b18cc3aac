"""Backend error paths: spawn failures, cancellation, backend crashes."""

import pytest

from repro import Options, Parallel
from repro.core.backends import Backend, CallableBackend, LocalShellBackend
from repro.core.job import Job, JobResult, JobState


def test_spawn_failure_is_result_not_exception():
    backend = LocalShellBackend(shell="/no/such/shell")
    summary = Parallel("echo {}", jobs=1, backend=backend).run(["a"])
    assert summary.n_failed == 1
    r = summary.results[0]
    assert r.exit_code == 127
    assert "spawn failed" in r.stderr


def test_cancelled_local_backend_refuses_new_jobs():
    backend = LocalShellBackend()
    backend.cancel_all()
    job = Job(seq=1, args=("x",), command="echo x", attempt=1)
    result = backend.run_job(job, 1, Options(jobs=1))
    assert result.state == JobState.KILLED


def test_cancelled_callable_backend_refuses_new_jobs():
    backend = CallableBackend(lambda x: x)
    backend.cancel_all()
    job = Job(seq=1, args=("x",), command="", attempt=1)
    result = backend.run_job(job, 1, Options(jobs=1))
    assert result.state == JobState.KILLED


def test_callable_backend_rejects_non_callable():
    with pytest.raises(TypeError):
        CallableBackend("not callable")


class ExplodingBackend(Backend):
    """A buggy backend whose run_job raises (engine must not crash)."""

    host = "boom"

    def run_job(self, job, slot, options, timeout=None):
        raise RuntimeError("backend exploded")


def test_backend_exception_becomes_failed_result():
    summary = Parallel("echo {}", jobs=2, backend=ExplodingBackend()).run(["a", "b"])
    assert summary.n_failed == 2
    for r in summary.results:
        assert r.exit_code == 126
        assert "backend error" in r.stderr
        assert r.host == "boom"


def test_local_backend_host_is_machine_hostname():
    import socket

    summary = Parallel("echo {}", jobs=1).run(["x"])
    assert summary.results[0].host == socket.gethostname()


def test_callable_timeout_abandons_runaway_thread():
    import time

    def runaway(_x):
        time.sleep(30)

    backend = CallableBackend(runaway)
    job = Job(seq=1, args=("x",), command="", attempt=1)
    start = time.time()
    result = backend.run_job(job, 1, Options(jobs=1), timeout=0.2)
    assert time.time() - start < 5
    assert result.state == JobState.TIMED_OUT


def test_callable_timeout_notice_goes_to_stderr_not_output():
    import io
    import time

    def job(x):
        if x == "slow":
            time.sleep(0.5)
        return x

    sink = io.StringIO()
    summary = Parallel(job, jobs=2, timeout=0.1, output=sink).run(["fast", "slow"])
    assert sink.getvalue() == "fast"  # nothing of the slow job reaches the output
    slow = summary.sorted_results()[1]
    assert slow.state == JobState.TIMED_OUT
    assert slow.stdout == ""
    assert slow.stderr == "timeout after 0.1s"
