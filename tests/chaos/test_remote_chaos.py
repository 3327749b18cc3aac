"""Transport-fault chaos: hosts misbehave, the run must not.

The headline scenario is the paper's worst practical failure on a
multi-node roster: one of four hosts dies *mid-run* with jobs in flight.
The contract is that the run still completes every job correctly — the
dead host gets banned after ``ban_after`` consecutive transport failures
and its displaced jobs hop to survivors within the same attempt, so the
joblog/results accounting is indistinguishable from a healthy run.
"""

import pytest

from repro import Parallel
from repro.core.joblog import read_joblog
from repro.core.template import CommandTemplate
from repro.faults import FaultPlan, FaultSpec, FaultyTransport
from repro.obs import RunTracer
from repro.remote import (
    LocalTransport, RemoteBackend, SimTransport, parse_sshlogin,
)
from tests.remote.test_staging_parity import (  # noqa: F401 (fixture)
    baseline, observable, run_variant,
)

FOUR_HOSTS = "2/n1,2/n2,2/n3,2/n4"


class EventSink:
    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)

    def close(self):
        pass

    def named(self, name):
        return [e for e in self.events if e.name == name]


def chaos_run(n_jobs, transport, *, ban_after=2, specs=FOUR_HOSTS, **optkw):
    backend = RemoteBackend(
        parse_sshlogin(specs), transport,
        template=CommandTemplate("echo {}"),
    )
    sink = EventSink()
    summary = Parallel(
        "echo {}", backend=backend, sshlogin=[specs],
        ban_after=ban_after, tracer=RunTracer(sinks=[sink]), **optkw,
    ).run([str(i) for i in range(n_jobs)])
    return summary, sink


class TestTransportFaultKinds:
    def test_connect_timeout_is_transparent_to_the_run(self):
        # A transient connect blip on three seqs: each hops to another
        # host inside attempt 1 — no retries consumed, nothing failed.
        plan = FaultPlan(seed=1, by_seq={
            2: FaultSpec("connect_timeout"),
            5: FaultSpec("connect_timeout"),
            9: FaultSpec("connect_timeout"),
        })
        ft = FaultyTransport(SimTransport(), plan=plan)
        summary, sink = chaos_run(12, ft)
        assert summary.ok and summary.n_succeeded == 12
        assert all(r.attempt == 1 for r in summary.results)
        assert ft.injected == {"connect_timeout": 3}
        assert len(sink.named("transport_error")) == 3

    def test_mid_job_drop_replaces_the_attempt(self):
        # `drop` fires *after* the inner execute: the work happened but
        # the result was lost in transit.  The backend must re-place the
        # same attempt, accepting the double execution.
        plan = FaultPlan(seed=2, by_seq={4: FaultSpec("drop")})
        st = SimTransport()
        ft = FaultyTransport(st, plan=plan)
        summary, _ = chaos_run(8, ft)
        assert summary.ok
        assert ft.injected == {"drop": 1}
        execs = [seq for _h, _c, seq in st.exec_log]
        assert execs.count(4) == 2  # executed, dropped, re-executed
        assert sorted(set(execs)) == list(range(1, 9))

    def test_random_transport_faults_never_fail_a_run(self):
        # A 15% connect-timeout storm across a 60-job run: transient
        # host-hopping must absorb all of it.
        plan = FaultPlan(seed=7, random_faults=[
            (0.15, FaultSpec("connect_timeout")),
        ])
        ft = FaultyTransport(SimTransport(), plan=plan)
        summary, _ = chaos_run(60, ft)
        assert summary.ok and summary.n_succeeded == 60

    def test_transport_faults_ignored_by_local_backends(self):
        # The same plan on a FaultyBackend over a local backend is a
        # no-op: transport kinds only mean something to a transport.
        from repro.core.backends.callable_backend import CallableBackend
        from repro.faults import FaultyBackend

        plan = FaultPlan(by_seq={1: FaultSpec("connect_timeout")})
        backend = FaultyBackend(CallableBackend(lambda x: x), plan)
        summary = Parallel(lambda x: x, jobs=2, backend=backend).run(
            ["a", "b"]
        )
        assert summary.ok
        assert backend.injected == {}

    def test_fault_wrapper_keeps_the_roster_slot_total(self):
        # -j is per host under -S: a FaultyBackend over a 2+3-slot roster
        # must still let 5 jobs run at once, not -j1's single slot.
        import threading
        import time

        from repro.faults import FaultyBackend

        lock, running, peak = threading.Lock(), [0], [0]

        def handler(host, command):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.2)
            with lock:
                running[0] -= 1
            return 0, ""

        specs = "2/n1,3/n2"
        remote = RemoteBackend(parse_sshlogin(specs), SimTransport(handler=handler),
                               template=CommandTemplate("echo {}"))
        backend = FaultyBackend(remote, FaultPlan())
        assert backend.total_slots == 5
        summary = Parallel("echo {}", jobs=1, sshlogin=[specs],
                           backend=backend).run([str(i) for i in range(10)])
        assert summary.ok
        assert peak[0] == 5


class TestHostDiesMidRun:
    N_JOBS = 40

    def run_with_dead_host(self, victim_budget):
        st = SimTransport()
        ft = FaultyTransport(st, host_down_after={"n3": victim_budget})
        summary, sink = chaos_run(self.N_JOBS, ft, ban_after=2)
        return summary, sink, st, ft

    def test_run_completes_when_one_of_four_hosts_dies(self, tmp_path):
        summary, sink, st, ft = self.run_with_dead_host(5)
        assert summary.ok
        assert summary.n_succeeded == self.N_JOBS
        assert {r.seq for r in summary.results} == set(
            range(1, self.N_JOBS + 1)
        )
        # The victim did at most its pre-death budget of work.
        assert ft.completed_on("n3") <= 5
        assert sum(1 for r in summary.results if r.host == "n3") <= 5
        # Survivors carried the rest.
        survivors = {r.host for r in summary.results} - {"n3"}
        assert survivors <= {"n1", "n2", "n4"} and survivors
        # The death was observed and acted on: banned exactly once.
        banned = sink.named("host_banned")
        assert [e.data["host"] for e in banned] == ["n3"]

    def test_dead_host_joblog_accounting_stays_clean(self, tmp_path):
        st = SimTransport()
        ft = FaultyTransport(st, host_down_after={"n3": 5})
        backend = RemoteBackend(
            parse_sshlogin(FOUR_HOSTS), ft,
            template=CommandTemplate("echo {}"),
        )
        joblog = str(tmp_path / "joblog.tsv")
        summary = Parallel(
            "echo {}", backend=backend, sshlogin=[FOUR_HOSTS],
            ban_after=2, joblog=joblog,
        ).run([str(i) for i in range(self.N_JOBS)])
        assert summary.ok
        entries = read_joblog(joblog)
        assert sorted(e.seq for e in entries) == list(
            range(1, self.N_JOBS + 1)
        )
        assert all(e.exitval == 0 for e in entries)
        # Every joblog line names the host that actually ran the job.
        by_seq = {r.seq: r.host for r in summary.results}
        assert all(e.host == by_seq[e.seq] for e in entries)

    def test_host_dead_from_start_never_runs_anything(self):
        summary, sink, st, ft = self.run_with_dead_host(0)
        assert summary.ok and summary.n_succeeded == self.N_JOBS
        assert ft.completed_on("n3") == 0
        assert all(r.host != "n3" for r in summary.results)

    def test_all_hosts_dead_fails_every_job_cleanly(self):
        ft = FaultyTransport(
            SimTransport(),
            host_down_after={f"n{i}": 0 for i in range(1, 5)},
        )
        summary, sink = chaos_run(6, ft, ban_after=1, retries=1)
        assert not summary.ok
        assert summary.n_failed == 6
        assert all(r.exit_code == 255 for r in summary.results)
        assert {e.data["host"] for e in sink.named("host_banned")} == {
            "n1", "n2", "n3", "n4"
        }


class TestStagedHostDeath:
    """Hosts die under ``--transferfile``/``--return``/``--cleanup`` on
    real per-host roots: the run's output must match the staging parity
    baseline after re-placement and cache invalidation."""

    def test_host_death_mid_run_reroutes_without_stale_reuse(
        self, tmp_path, baseline
    ):
        """n1 dies after 2 completed commands: its jobs must re-place,
        its cache entries must be invalidated (no job may trust files on
        the dead host), and the user-visible output must match."""
        root = tmp_path / "chaos"
        root.mkdir()
        transport = FaultyTransport(LocalTransport(), host_down_after={"n1": 2})
        summary = run_variant(root, transport=transport, ban_after=2)
        assert summary.ok
        assert observable(root, summary) == baseline
        assert transport.injected.get("host_down", 0) > 0

    def test_all_but_one_host_down_still_completes(self, tmp_path, baseline):
        """Every named host but one dies after one command: the run must
        still finish with correct output via the survivor."""
        root = tmp_path / "survivor"
        root.mkdir()
        transport = FaultyTransport(
            LocalTransport(),
            host_down_after={"n1": 1, "n2": 1, "n3": 1},
        )
        summary = run_variant(root, transport=transport, ban_after=1)
        assert summary.ok
        assert observable(root, summary) == baseline
        assert transport.injected.get("host_down", 0) > 0
