"""LocalTransport (real subprocesses) and SimTransport (virtual time)."""

import os
import sys
import threading

import pytest

from repro.errors import StagingError, TransportError
from repro.remote.hosts import HostSpec
from repro.remote.transport import LocalTransport, SimTransport
from repro.sim.netmodel import NetModel

N1 = HostSpec("n1", 2)
N2 = HostSpec("n2", 2)
LOCAL = HostSpec(":", 2)


@pytest.fixture
def lt(tmp_path):
    transport = LocalTransport(root=str(tmp_path / "hosts"))
    yield transport
    transport.close()


class TestLocalTransportRoots:
    def test_named_hosts_get_isolated_roots(self, lt):
        r1, r2 = lt.host_root(N1), lt.host_root(N2)
        assert r1 != r2
        assert os.path.isdir(r1) and os.path.isdir(r2)

    def test_colon_host_has_no_fake_root(self, lt):
        assert lt.host_root(LOCAL) is None
        assert lt.ensure_workdir(LOCAL, None) == os.getcwd()

    def test_workdir_default_is_host_root(self, lt):
        assert lt.ensure_workdir(N1, None) == lt.host_root(N1)

    def test_workdir_path_is_rooted(self, lt):
        wd = lt.ensure_workdir(N1, "/scratch/run")
        assert wd == os.path.join(lt.host_root(N1), "scratch/run")
        assert os.path.isdir(wd)

    def test_tmpdir_workdir_unique_and_removed_on_close(self, tmp_path):
        lt = LocalTransport(root=str(tmp_path / "hosts"))
        wd = lt.ensure_workdir(N1, "...")
        assert os.path.isdir(wd)
        lt.close()
        assert not os.path.exists(wd)

    def test_own_root_removed_on_close(self):
        lt = LocalTransport()  # lazily owns a mkdtemp root
        root = lt.host_root(N1)
        lt.close()
        assert not os.path.exists(root)

    @staticmethod
    def _staged_run(tmp_path, monkeypatch, hosts, status):
        # -S 1/n1 --transferfile in/{}.txt --return out/{}.txt --cleanup
        from repro.core.engine import Parallel
        from repro.core.template import CommandTemplate
        from repro.remote import RemoteBackend, parse_sshlogin

        local = tmp_path / "local"
        (local / "in").mkdir(parents=True)
        (local / "in" / "a.txt").write_text("payload\n")
        command = f"mkdir -p out && cp in/{{}}.txt out/{{}}.txt; exit {status}"
        backend = RemoteBackend(parse_sshlogin("1/n1"), LocalTransport(root=str(hosts)),
                                template=CommandTemplate(command))
        monkeypatch.chdir(local)
        summary = Parallel(
            command, backend=backend, sshlogin=["1/n1"],
            transfer_files=["in/{}.txt"], return_files=["out/{}.txt"], cleanup=True,
        ).run(["a"])
        assert [r.exit_code for r in summary.results] == [status]
        assert (local / "out" / "a.txt").read_text() == "payload\n"

    @pytest.mark.parametrize("status", [0, 3])
    def test_cleanup_leaves_a_callers_root_as_it_was(self, tmp_path, monkeypatch, status):
        # On success and on failure: the root gets no directory to keep.
        hosts = tmp_path / "hosts"
        (hosts / "kept").mkdir(parents=True)
        self._staged_run(tmp_path, monkeypatch, hosts, status)
        assert sorted(p.name for p in hosts.rglob("*")) == ["kept"]

    def test_cleanup_keeps_the_callers_empty_directories(self, tmp_path, monkeypatch):
        # The host's home and its out/ were there before the run: both
        # stay, empty; only in/, which staging made, goes.
        hosts = tmp_path / "hosts"
        (hosts / "n1" / "out").mkdir(parents=True)
        self._staged_run(tmp_path, monkeypatch, hosts, 0)
        assert sorted(str(p.relative_to(hosts)) for p in hosts.rglob("*")) == [
            "n1", os.path.join("n1", "out")]


class TestLocalTransportExec:
    def test_staged_file_visible_only_on_its_host(self, lt, tmp_path):
        src = tmp_path / "a.txt"
        src.write_text("payload\n")
        wd1 = lt.ensure_workdir(N1, None)
        wd2 = lt.ensure_workdir(N2, None)
        lt.put(N1, str(src), "a.txt", wd1)
        ok = lt.execute(N1, "cat a.txt", workdir=wd1)
        miss = lt.execute(N2, "cat a.txt", workdir=wd2)
        assert ok.exit_code == 0 and ok.stdout == "payload\n"
        assert miss.exit_code != 0

    def test_nonzero_exit_is_a_result_not_an_error(self, lt):
        wd = lt.ensure_workdir(N1, None)
        res = lt.execute(N1, "exit 7", workdir=wd)
        assert res.exit_code == 7 and not res.timed_out

    def test_timeout_kills_and_flags(self, lt):
        wd = lt.ensure_workdir(N1, None)
        res = lt.execute(N1, "sleep 30", workdir=wd, timeout=0.2)
        assert res.timed_out and res.exit_code != 0

    def test_stdin_reaches_command(self, lt):
        wd = lt.ensure_workdir(N1, None)
        res = lt.execute(N1, "wc -l", workdir=wd, stdin="1\n2\n3\n")
        assert res.stdout.strip() == "3"

    def test_env_reaches_command(self, lt):
        wd = lt.ensure_workdir(N1, None)
        res = lt.execute(N1, "echo $REPRO_X", workdir=wd, env={"REPRO_X": "42"})
        assert res.stdout.strip() == "42"

    def test_spawn_failure_is_transport_error(self, tmp_path):
        lt = LocalTransport(root=str(tmp_path / "h"), shell="/nonexistent-shell")
        wd = lt.ensure_workdir(N1, None)
        with pytest.raises(TransportError) as exc:
            lt.execute(N1, "true", workdir=wd)
        assert exc.value.phase == "execute"
        lt.close()

    @pytest.mark.parametrize("stdin", [None, "x\n"], ids=["plain", "pipe"])
    def test_vanished_workdir_is_transport_error(self, lt, stdin):
        # Popen's cwd= fails before the job starts: a host-level error,
        # for a --pipe job and a plain one alike, never a job exit code.
        wd = lt.ensure_workdir(N1, "/gone")
        os.rmdir(wd)
        with pytest.raises(TransportError) as exc:
            lt.execute(N1, "true", workdir=wd, stdin=stdin)
        assert exc.value.phase == "execute"

    def test_get_missing_file_is_staging_error(self, lt, tmp_path):
        wd = lt.ensure_workdir(N1, None)
        with pytest.raises(StagingError):
            lt.get(N1, "no-such.txt", str(tmp_path / "out.txt"), wd)

    def test_put_get_roundtrip_and_remove(self, lt, tmp_path):
        src = tmp_path / "x.bin"
        src.write_bytes(b"\x00\x01\x02")
        wd = lt.ensure_workdir(N1, None)
        assert lt.put(N1, str(src), "d/x.bin", wd) == 3
        dest = tmp_path / "back.bin"
        assert lt.get(N1, "d/x.bin", str(dest), wd) == 3
        assert dest.read_bytes() == b"\x00\x01\x02"
        assert lt.remove(N1, ["d/x.bin"], wd) == 1
        assert not os.path.exists(os.path.join(wd, "d/x.bin"))
        # the "d" directory is deliberately kept: pruning a shared workdir
        # would race with concurrent jobs on the host's other slots

    def test_cancel_all_refuses_new_work(self, lt):
        wd = lt.ensure_workdir(N1, None)
        lt.cancel_all()
        res = lt.execute(N1, "echo hi", workdir=wd)
        assert res.exit_code != 0


class TestSimTransport:
    def test_execute_advances_virtual_clock_only(self):
        st = SimTransport(NetModel(latency_s=0.5), runtime_s=2.0)
        wd = st.ensure_workdir(N1, None)
        res = st.execute(N1, "anything", workdir=wd)
        assert res.exit_code == 0
        assert st.elapsed(N1) == pytest.approx(2.5)
        assert st.elapsed(N2) == 0.0
        # The session is open: a second execute costs only the runtime.
        st.execute(N1, "again", workdir=wd)
        assert st.elapsed(N1) == pytest.approx(4.5)

    def test_latency_charged_once_per_host_under_concurrency(self):
        st = SimTransport(NetModel(latency_s=1.0), runtime_s=0.0)

        def burst():
            for _ in range(50):
                st.execute(N1, "c", workdir="w")

        threads = [threading.Thread(target=burst) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(st.exec_log) == 400
        assert st.elapsed(N1) == pytest.approx(1.0)

    def test_handler_scripts_outcomes(self):
        st = SimTransport(handler=lambda h, cmd: (3, f"{h.name}:{cmd}"))
        wd = st.ensure_workdir(N1, None)
        res = st.execute(N1, "job-1", workdir=wd)
        assert (res.exit_code, res.stdout) == (3, "n1:job-1")

    def test_simulated_timeout(self):
        st = SimTransport(NetModel(latency_s=0.0), runtime_s=10.0)
        res = st.execute(N1, "slow", workdir="w", timeout=1.0)
        assert res.timed_out
        assert st.elapsed(N1) == pytest.approx(1.0)

    def test_put_reads_real_file_and_charges_transfer(self, tmp_path):
        src = tmp_path / "f.txt"
        src.write_bytes(b"x" * 1000)
        st = SimTransport(NetModel(latency_s=0.0, bw_Bps=100.0))
        wd = st.ensure_workdir(N1, None)
        assert st.put(N1, str(src), "f.txt", wd) == 1000
        assert st.elapsed(N1) == pytest.approx(10.0)  # 1000 B / 100 B/s
        assert st.files["n1"]["f.txt"] == b"x" * 1000

    def test_put_missing_source_is_staging_error(self, tmp_path):
        st = SimTransport()
        with pytest.raises(StagingError):
            st.put(N1, str(tmp_path / "absent"), "a", "w")

    def test_get_writes_local_file(self, tmp_path):
        st = SimTransport()
        st.provide(N1, "out.txt", b"result\n")
        dest = tmp_path / "nested" / "out.txt"
        assert st.get(N1, "out.txt", str(dest), "w") == 7
        assert dest.read_bytes() == b"result\n"

    def test_get_missing_is_staging_error(self, tmp_path):
        st = SimTransport()
        with pytest.raises(StagingError):
            st.get(N1, "nope", str(tmp_path / "o"), "w")

    def test_remove_clears_virtual_files(self):
        st = SimTransport()
        st.provide(N1, "a", b"1")
        st.provide(N1, "b", b"2")
        assert st.remove(N1, ["a", "missing"], "w") == 1
        assert "a" not in st.files["n1"] and "b" in st.files["n1"]

    def test_jitter_is_deterministic_per_seed(self):
        def total(seed):
            st = SimTransport(NetModel(latency_s=1.0, jitter=0.5),
                              runtime_s=1.0, seed=seed)
            for _ in range(5):
                st.execute(N1, "c", workdir="w")
            return st.elapsed(N1)

        assert total(7) == total(7)
        assert total(7) != total(8)

    def test_exec_log_records_placement(self):
        st = SimTransport()
        st.execute(N1, "c1", workdir="w", seq=1)
        st.execute(N2, "c2", workdir="w", seq=2)
        assert st.exec_log == [("n1", "c1", 1), ("n2", "c2", 2)]
