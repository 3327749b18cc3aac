"""``Backend.renew()``: what a reused engine runs its next run on.

Backends are single-run (in-flight processes, cancellation), so
``Parallel`` renews its default backend before every run.  The
``RemoteBackend`` row lives with the remote suite
(``tests/remote/test_remote_backend.py``).
"""

import pytest

from repro.core.backends.base import Backend
from repro.core.backends.callable_backend import CallableBackend
from repro.core.backends.local import LocalShellBackend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import Options
from repro.faults import FaultPlan, FaultSpec, FaultyBackend


def ident(x):
    return x


def run_one(backend, seq):
    job = Job(seq=seq, args=(str(seq),), attempt=1)
    return backend.run_job(job, 1, Options(jobs=1))


class UserBackend(Backend):
    """A third-party backend that does not override ``renew``."""

    def run_job(self, job, slot, options, timeout=None):
        return JobResult(seq=job.seq, args=job.args, command="", exit_code=0)


def check_local(old, new):
    assert type(new) is LocalShellBackend and new is not old
    assert new.shell == old.shell == "/bin/bash"


def check_callable(old, new):
    assert type(new) is CallableBackend and new is not old
    assert new.func is ident
    # The old instance was cancelled; the new one runs.
    assert run_one(old, 2).state is JobState.KILLED
    assert run_one(new, 2).ok


def faulty_after_one_crash():
    backend = FaultyBackend(CallableBackend(ident),
                            FaultPlan(by_seq={1: FaultSpec("crash"),
                                               3: FaultSpec("hang")}))
    run_one(backend, 1)
    return backend


def check_faulty(old, new):
    # Reset in place: the caller's handle keeps the fault counters.
    assert new is old
    assert new.injected == {"crash": 1}
    assert type(new.inner) is CallableBackend and new.inner.func is ident
    # The cancelled inner was replaced: seq 2 passes through and runs.
    assert run_one(new, 2).ok
    # The wrapper's own cancellation is cleared: a hang waits out its
    # timeout instead of reporting KILLED.
    hang = Job(seq=3, args=("3",), attempt=1)
    assert new.run_job(hang, 1, Options(jobs=1), timeout=0.01).state is JobState.TIMED_OUT


def check_user(old, new):
    assert new is old


@pytest.mark.parametrize("make, check", [
    (lambda: LocalShellBackend(shell="/bin/bash"), check_local),
    (lambda: CallableBackend(ident), check_callable),
    (faulty_after_one_crash, check_faulty),
    (UserBackend, check_user),
], ids=["local-shell", "callable", "faulty", "user-subclass"])
def test_renew(make, check):
    backend = make()
    backend.cancel_all()
    check(backend, backend.renew())
