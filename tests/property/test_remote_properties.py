"""Property tests for remote placement invariants.

The four promises the multi-host layer makes, checked over randomized
rosters, workloads and fault schedules:

* **Slot discipline** — per-host concurrency never exceeds the host's
  slot count, for any roster shape and job count;
* **Placement totality** — every job executes on exactly one host, and
  that host was not banned at dispatch time;
* **Requeue-not-drop** — banning a host mid-run loses no jobs: every seq
  still completes (on a surviving host), with no duplicate joblog entry;
* **Local parity** — a remote run's joblog seq/exit accounting is
  identical to the local backend running the same workload.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Parallel
from repro.core.joblog import read_joblog
from repro.core.template import CommandTemplate
from repro.faults import FaultyTransport
from repro.obs import RunTracer
from repro.remote import HostSpec, RemoteBackend, SimTransport

rosters = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=5
).map(lambda slots: [HostSpec(f"h{i}", s) for i, s in enumerate(slots)])


class EventSink:
    """Collects tracer events; the engine renews user-supplied backends per
    run, so tracer events are the stable way to observe placement health."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)

    def close(self):
        pass

    def named(self, name):
        return [e for e in self.events if e.name == name]


class CountingTransport(SimTransport):
    """SimTransport that tracks live and peak per-host concurrency."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self._track = threading.Lock()
        self.live = {}
        self.peak = {}

    def execute(self, host, command, **kw):
        with self._track:
            self.live[host.name] = self.live.get(host.name, 0) + 1
            self.peak[host.name] = max(
                self.peak.get(host.name, 0), self.live[host.name]
            )
        try:
            # A tiny real sleep forces genuine overlap between workers so
            # the peak counter actually observes concurrency.
            threading.Event().wait(0.002)
            return super().execute(host, command, **kw)
        finally:
            with self._track:
                self.live[host.name] -= 1


def run_remote(hosts, n_jobs, transport=None, **optkw):
    transport = transport if transport is not None else SimTransport()
    backend = RemoteBackend(hosts, transport,
                            template=CommandTemplate("job {}"))
    sink = EventSink()
    sshlogin = [",".join(f"{h.slots}/{h.name}" for h in hosts)]
    summary = Parallel(
        "job {}", backend=backend, sshlogin=sshlogin,
        tracer=RunTracer(sinks=[sink]), **optkw,
    ).run([str(i) for i in range(n_jobs)])
    return summary, transport, sink


@given(rosters, st.integers(min_value=1, max_value=40))
@settings(max_examples=15, deadline=None)
def test_per_host_concurrency_never_exceeds_slots(hosts, n_jobs):
    transport = CountingTransport()
    summary, _, _ = run_remote(hosts, n_jobs, transport=transport)
    assert summary.ok
    slots = {h.name: h.slots for h in hosts}
    executed = {host for host, _cmd, _seq in transport.exec_log}
    assert executed and set(transport.peak) == executed
    for name, peak in transport.peak.items():
        assert peak <= slots[name]


@given(rosters, st.integers(min_value=1, max_value=40))
@settings(max_examples=15, deadline=None)
def test_every_job_executes_on_exactly_one_live_host(hosts, n_jobs):
    summary, transport, sink = run_remote(hosts, n_jobs)
    assert summary.ok
    names = {h.name for h in hosts}
    execs_by_seq = {}
    for host, _cmd, seq in transport.exec_log:
        execs_by_seq.setdefault(seq, []).append(host)
    # Exactly one execution per seq, on a roster host never banned.
    assert set(execs_by_seq) == set(range(1, n_jobs + 1))
    assert all(len(v) == 1 for v in execs_by_seq.values())
    assert all(v[0] in names for v in execs_by_seq.values())
    assert sink.named("host_banned") == []
    # The result's recorded host is the host that actually executed.
    for r in summary.results:
        assert [r.host] == execs_by_seq[r.seq]


@given(
    st.integers(min_value=2, max_value=5),   # roster size
    st.integers(min_value=8, max_value=30),  # jobs
    st.integers(min_value=0, max_value=6),   # victim dies after k executes
)
@settings(max_examples=15, deadline=None)
def test_banning_requeues_inflight_jobs_never_drops(n_hosts, n_jobs, k):
    ban_after = 2
    hosts = [HostSpec(f"h{i}", 2) for i in range(n_hosts)]
    transport = FaultyTransport(SimTransport(), host_down_after={"h0": k})
    summary, _, sink = run_remote(
        hosts, n_jobs, transport=transport, ban_after=ban_after
    )
    # Every seq completed successfully despite the mid-run host death.
    assert summary.ok
    assert summary.n_succeeded == n_jobs
    assert {r.seq for r in summary.results} == set(range(1, n_jobs + 1))
    # The dead host finished at most its pre-death budget; everything its
    # death displaced landed on survivors.
    assert transport.completed_on("h0") <= k
    assert sum(1 for r in summary.results if r.host == "h0") <= k
    # Post-death failures are consecutive, so the host is banned as soon
    # as it eats ban_after of them — and never leased again afterwards.
    errors_h0 = [e for e in sink.named("transport_error")
                 if e.data.get("host") == "h0"]
    assert len(errors_h0) <= ban_after
    if len(errors_h0) >= ban_after:
        assert any(e.data.get("host") == "h0"
                   for e in sink.named("host_banned"))


@given(
    n_hosts=st.integers(min_value=1, max_value=4),
    slots=st.integers(min_value=1, max_value=3),
    n_jobs=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=10, deadline=None)
def test_joblog_parity_with_local_backend(tmp_path_factory, n_hosts, slots, n_jobs):
    inputs = [str(i) for i in range(n_jobs)]
    root = tmp_path_factory.mktemp("parity")
    # Exit code derived from the input: args divisible by 3 fail (exit 1).
    cmd = 'test $(( {} % 3 )) -ne 0'
    local_log = str(root / "local.tsv")
    remote_log = str(root / "remote.tsv")

    Parallel(cmd, jobs=4, joblog=local_log).run(inputs)

    hosts = [HostSpec(f"h{i}", slots) for i in range(n_hosts)]
    backend = RemoteBackend(
        hosts,
        SimTransport(handler=lambda h, c: _exit_for(c)),
        template=CommandTemplate(cmd),
    )
    Parallel(
        cmd, backend=backend, joblog=remote_log,
        sshlogin=[",".join(f"{h.slots}/{h.name}" for h in hosts)],
    ).run(inputs)

    local = {e.seq: e.exitval for e in read_joblog(local_log)}
    remote = {e.seq: e.exitval for e in read_joblog(remote_log)}
    assert remote == local
    assert set(local) == set(range(1, n_jobs + 1))


def _exit_for(command):
    """Evaluate the parity workload's `test $(( N % 3 )) -ne 0` command."""
    n = int(command.split("((")[1].split("%")[0].strip())
    return (0, "") if n % 3 else (1, "")
