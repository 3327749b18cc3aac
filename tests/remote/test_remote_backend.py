"""RemoteBackend end-to-end: placement, staging, health, local parity."""

import os

import pytest

from repro.core.backends.spawn import SpawnLauncher
from repro.core.engine import Parallel
from repro.core.job import Job, JobState
from repro.core.joblog import read_joblog
from repro.core.options import Options
from repro.core.template import CommandTemplate
from repro.faults import FaultPlan, FaultSpec, FaultyBackend, FaultyTransport
from repro.obs import RunTracer
from repro.remote import (
    LocalTransport,
    RemoteBackend,
    SimTransport,
    parse_sshlogin,
)
from repro.remote import transport as transport_module

FOUR_HOSTS = "2/n1,2/n2,2/n3,2/n4"


def make_backend(specs=FOUR_HOSTS, template="echo {}", transport=None, **kw):
    return RemoteBackend(
        parse_sshlogin(specs),
        transport if transport is not None else LocalTransport(),
        template=CommandTemplate(template),
        **kw,
    )


def run_job_direct(backend, seq=1, arg="a", slot=1, **optkw):
    optkw.setdefault("sshlogin", ["n1"])
    job = Job(seq=seq, args=(arg,), command=f"echo {arg}", attempt=1)
    return backend.run_job(job, slot, Options(jobs=1, **optkw))


class TestPlacement:
    def test_jobs_spread_across_hosts(self):
        st = SimTransport()
        be = make_backend(transport=st)
        opts = Options(jobs=2, sshlogin=[FOUR_HOSTS])
        be.prepare_run(opts)
        for seq in range(1, 5):
            job = Job(seq=seq, args=(str(seq),), command="c", attempt=1)
            res = be.run_job(job, seq, opts)
            assert res.ok
        hosts_used = {h for h, _, _ in st.exec_log}
        # Sequential submissions on an idle roster always pick an idle
        # host, so 4 jobs land on 4 distinct hosts.
        assert hosts_used == {"n1", "n2", "n3", "n4"}

    def test_per_host_slot_in_command(self):
        # {%} must be the per-host slot (1-based within each host), not
        # the scheduler's global slot: the GPU-isolation idiom needs a
        # valid device index on every node independently.
        summary = Parallel(
            "echo {%} {host}", sshlogin=[FOUR_HOSTS], jobs=2,
        ).run([str(i) for i in range(16)])
        assert summary.ok
        for r in summary.results:
            slot_str, host = r.stdout.split()
            assert host in {"n1", "n2", "n3", "n4"}
            assert 1 <= int(slot_str) <= 2  # never beyond the host's slots

    def test_total_slots_caps_scheduler(self):
        be = make_backend("2/n1,3/n2")
        assert be.total_slots == 5

    def test_host_token_literal_for_local_runs(self):
        summary = Parallel("echo {} {host}", jobs=2).run(["a"])
        assert summary.results[0].stdout.strip() == "a {host}"


class TestHealth:
    def test_transport_error_hops_to_another_host(self):
        plan = FaultPlan(seed=3, by_seq={1: FaultSpec("connect_timeout")})
        ft = FaultyTransport(SimTransport(), plan=plan)
        be = make_backend("1/h1,1/h2", transport=ft)
        res = run_job_direct(be, seq=1)
        assert res.ok and res.attempt == 1  # same attempt, different host
        assert ft.injected == {"connect_timeout": 1}

    def test_repeated_failures_ban_host_and_run_completes(self):
        ft = FaultyTransport(SimTransport(), host_down_after={"h1": 0})
        be = make_backend("1/h1,1/h2", transport=ft, ban_after=2)
        opts = Options(jobs=1, sshlogin=["1/h1,1/h2"], ban_after=2)
        be.prepare_run(opts)
        results = []
        for seq in range(1, 6):
            job = Job(seq=seq, args=(str(seq),), command="c", attempt=1)
            results.append(be.run_job(job, seq, opts))
        assert all(r.ok for r in results)
        assert be.pool.is_banned("h1")
        assert all(r.host == "h2" for r in results[2:])

    def test_all_hosts_banned_fails_cleanly(self):
        ft = FaultyTransport(SimTransport(),
                             host_down_after={"h1": 0, "h2": 0})
        be = make_backend("1/h1,1/h2", transport=ft, ban_after=1)
        res = run_job_direct(be)
        assert res.state is JobState.FAILED
        assert res.exit_code == 255
        assert "banned" in res.stderr or "placements" in res.stderr

    def test_staging_error_fails_job_without_ban(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        be = make_backend("1/h1", transport=SimTransport())
        res = run_job_direct(
            be, transfer_files=["no-such-{}.txt"], sshlogin=["1/h1"],
        )
        assert res.state is JobState.FAILED and res.exit_code == 255
        assert "staging failed" in res.stderr
        assert not be.pool.is_banned("h1")

    def test_tracer_emits_transport_events_and_host_spans(self):
        events = []

        class Sink:
            def handle(self, event):
                events.append(event)

            def close(self):
                pass

        ft = FaultyTransport(SimTransport(), host_down_after={"h1": 0})
        be = make_backend("1/h1,1/h2", transport=ft, ban_after=1)
        tracer = RunTracer(sinks=[Sink()])
        be.bind_tracer(tracer)
        opts = Options(jobs=1, sshlogin=["1/h1,1/h2"], ban_after=1)
        be.prepare_run(opts)
        job = Job(seq=1, args=("a",), command="c", attempt=1)
        tracer.job_submitted(1)
        tracer.attempt_started(1, 1, 1)
        res = be.run_job(job, 1, opts)
        tracer.attempt_finished(job, res)
        names = [e.name for e in events if e.name]
        assert "transport_error" in names and "host_banned" in names
        assert tracer.spans[1].attempts[0].host == "h2"


class TestFaultWrapperPath:
    """A fault-free FaultyTransport must drive exactly the path production
    takes: chaos tests that wrap a transport test that transport."""

    ROSTER = "2/h1,2/h2"

    def run_sequential(self, transport, n_jobs=20):
        be = make_backend(self.ROSTER, transport=transport)
        opts = Options(jobs=2, sshlogin=[self.ROSTER])
        be.prepare_run(opts)
        try:
            return [
                be.run_job(
                    Job(seq=seq, args=(str(seq),), command=f"echo {seq}",
                        attempt=1),
                    seq, opts,
                )
                for seq in range(1, n_jobs + 1)
            ]
        finally:
            be.close()

    def test_wrapped_sim_transport_costs_match_bare(self):
        bare, inner = SimTransport(), SimTransport()
        self.run_sequential(bare)
        self.run_sequential(FaultyTransport(inner))
        hosts = parse_sshlogin(self.ROSTER)
        assert [inner.elapsed(h) for h in hosts] == [bare.elapsed(h) for h in hosts]
        assert [h for h, _, _ in inner.exec_log] == [h for h, _, _ in bare.exec_log]
        assert {h for h, _, _ in bare.exec_log} == {"h1", "h2"}

    def test_wrapped_local_transport_takes_popen(self, monkeypatch, tmp_path):
        # One run_command per job with cwd= the host workdir and no
        # launcher: the Popen leg, with no posix_spawn anywhere.
        calls = []
        real = transport_module.run_command

        def recording_run_command(command, **kwargs):
            calls.append(kwargs)
            return real(command, **kwargs)

        def no_spawn(self, command):
            raise AssertionError("LocalTransport reached posix_spawn")

        monkeypatch.setattr(transport_module, "run_command", recording_run_command)
        monkeypatch.setattr(SpawnLauncher, "spawn", no_spawn)
        for name in ("bare", "wrapped"):
            local = LocalTransport(root=str(tmp_path / name))
            transport = FaultyTransport(local) if name == "wrapped" else local
            calls.clear()
            results = self.run_sequential(transport, n_jobs=6)
            assert all(r.ok for r in results), name
            assert len(calls) == 6, name
            workdirs = {str(tmp_path / name / host) for host in ("h1", "h2")}
            assert {kw["cwd"] for kw in calls} <= workdirs, name
            assert all("launcher" not in kw for kw in calls), name

    def test_wrapped_backend_reports_the_inner_staging(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        names = [f"in{i}.txt" for i in range(4)]
        for name in names:
            (tmp_path / name).write_text(name)
        staging = {}
        for name in ("bare", "wrapped"):
            remote = make_backend(
                self.ROSTER, template="cat {}",
                transport=LocalTransport(root=str(tmp_path / name)),
            )
            backend = FaultyBackend(remote, FaultPlan()) if name == "wrapped" else remote
            summary = Parallel(
                "cat {}", jobs=1, sshlogin=[self.ROSTER], transfer_files=["{}"],
                backend=backend,
            ).run(names)
            assert summary.ok, name
            staging[name] = summary.staging
        assert staging["bare"]["files_staged"] == 4
        assert staging["wrapped"] == staging["bare"]


class TestLocalhostStagingSkip:
    """GNU Parallel does no --transferfile/--return/--cleanup for ':':
    there is no transport hop, so a "transfer" is a same-path no-op and
    cleanup would delete the user's original files."""

    def test_cleanup_never_deletes_user_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.txt").write_text("precious\n")
        summary = Parallel(
            "cat {}", sshlogin=[":"], jobs=2,
            transfer_files=["{}"], cleanup=True,
        ).run(["data.txt"])
        assert summary.ok
        assert summary.results[0].stdout == "precious\n"
        assert (tmp_path / "data.txt").read_text() == "precious\n"

    def test_cleanup_never_deletes_returned_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.txt").write_text("abc\n")
        summary = Parallel(
            "tr a-z A-Z < in.txt > out-{}.txt", sshlogin=[":"], jobs=1,
            transfer_files=["in.txt"], return_files=["out-{}.txt"],
            cleanup=True,
        ).run(["1"])
        assert summary.ok
        assert (tmp_path / "in.txt").read_text() == "abc\n"
        assert (tmp_path / "out-1.txt").read_text() == "ABC\n"

    def test_mixed_roster_stages_named_hosts_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.txt").write_text("x\n")
        st = SimTransport()
        be = RemoteBackend(
            parse_sshlogin("1/n1,1/:"), st,
            template=CommandTemplate("cat in.txt"),
        )
        opts = Options(
            jobs=1, sshlogin=["1/n1,1/:"], transfer_files=["in.txt"],
        )
        be.prepare_run(opts)
        for seq in (1, 2):
            job = Job(seq=seq, args=(str(seq),), command="cat in.txt", attempt=1)
            assert be.run_job(job, seq, opts).ok
        # Both hosts executed, but only the named host saw a transfer.
        assert {h for h, _, _ in st.exec_log} == {"n1", ":"}
        assert list(st.files) == ["n1"]
        assert (tmp_path / "in.txt").exists()


class TestLifecycle:
    def test_renew_gives_fresh_pool_same_transport(self):
        be = make_backend("1/h1", transport=SimTransport())
        be.pool.ban("h1")
        fresh = be.renew()
        assert fresh.transport is be.transport
        assert not fresh.pool.is_banned("h1")

    def test_cancel_all_returns_killed(self):
        be = make_backend("1/h1", transport=SimTransport())
        be.cancel_all()
        res = run_job_direct(be)
        assert res.state is JobState.KILLED

    def test_engine_reuse_across_runs(self):
        engine = Parallel("echo {}", sshlogin=["2/a,2/b"], jobs=2)
        assert engine.run(["1", "2"]).ok
        assert engine.run(["3", "4"]).ok


class TestLocalParityAcceptance:
    """A 4-host LocalTransport run with full staging must be byte-identical
    (``--results`` tree) and exit-accounting-identical (joblog) to the
    plain local backend running the same workload."""

    COMMAND = "mkdir -p out && tr a-z A-Z < in/{}.txt > out/{}.txt && cat out/{}.txt"
    INPUTS = [f"f{i:02d}" for i in range(12)]

    def _populate(self, root):
        (root / "in").mkdir()
        for name in self.INPUTS:
            (root / "in" / f"{name}.txt").write_text(f"payload of {name}\n")

    def _run(self, root, remote):
        os.chdir(root)
        self._populate(root)
        kw = dict(
            jobs=2 if remote else 8,
            joblog=str(root / "joblog.tsv"),
            results=str(root / "results"),
            keep_order=True,
        )
        if remote:
            kw.update(
                sshlogin=[FOUR_HOSTS],
                transfer_files=["in/{}.txt"],
                return_files=["out/{}.txt"],
                cleanup=True,
            )
        summary = Parallel(self.COMMAND, **kw).run(self.INPUTS)
        assert summary.ok
        return summary

    @staticmethod
    def _results_tree(root):
        tree = {}
        base = root / "results"
        for dirpath, _dirs, files in os.walk(base):
            for fname in files:
                path = os.path.join(dirpath, fname)
                tree[os.path.relpath(path, base)] = open(path, "rb").read()
        return tree

    def test_byte_identical_results_and_joblog(self, tmp_path, monkeypatch):
        local_root = tmp_path / "local"
        remote_root = tmp_path / "remote"
        local_root.mkdir()
        remote_root.mkdir()
        cwd = os.getcwd()
        try:
            self._run(local_root, remote=False)
            self._run(remote_root, remote=True)
        finally:
            os.chdir(cwd)

        # --results trees: byte-for-byte identical.
        assert self._results_tree(remote_root) == self._results_tree(local_root)

        # --return round-tripped every output file with correct content.
        for name in self.INPUTS:
            got = (remote_root / "out" / f"{name}.txt").read_text()
            assert got == f"payload of {name}\n".upper()

        # Joblog parity: same seqs, same exit codes; remote lines name
        # roster hosts.
        local_log = {e.seq: e for e in read_joblog(str(local_root / "joblog.tsv"))}
        remote_log = {e.seq: e for e in read_joblog(str(remote_root / "joblog.tsv"))}
        assert set(remote_log) == set(local_log) == set(range(1, 13))
        for seq in local_log:
            assert remote_log[seq].exitval == local_log[seq].exitval == 0
            assert remote_log[seq].host in {"n1", "n2", "n3", "n4"}

    def test_cleanup_left_no_staged_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._populate(tmp_path)
        transport = LocalTransport()
        backend = RemoteBackend(
            parse_sshlogin(FOUR_HOSTS),
            transport,
            template=CommandTemplate(self.COMMAND),
        )
        summary = Parallel(
            self.COMMAND, backend=backend,
            sshlogin=[FOUR_HOSTS], jobs=2,
            transfer_files=["in/{}.txt"], return_files=["out/{}.txt"],
            cleanup=True,
        ).run(self.INPUTS)
        assert summary.ok
        for spec in parse_sshlogin(FOUR_HOSTS):
            root = transport.host_root(spec)
            leftovers = [
                os.path.join(d, f)
                for d, _dirs, files in os.walk(root)
                for f in files
            ]
            assert leftovers == []
        transport.close()
