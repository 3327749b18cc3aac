"""StagingPolicy: per-job template rendering and transfer phases."""

import threading

import pytest

from repro.core.job import Job
from repro.core.options import Options
from repro.errors import StagingError
from repro.remote.hosts import HostSpec
from repro.remote.staging import StagingPolicy
from repro.remote.transport import SimTransport
from repro.storage.transfer import remote_relpath

H1 = HostSpec("h1", 2)
H2 = HostSpec("h2", 2)


def job(seq=1, arg="a"):
    return Job(seq=seq, args=(arg,), attempt=1)


class TestRemoteRelpath:
    @pytest.mark.parametrize("given,expected", [
        ("in/a.txt", "in/a.txt"),
        ("./in/a.txt", "in/a.txt"),
        ("/data/a.txt", "data/a.txt"),
        ("//deep//path//f", "deep/path/f"),
    ])
    def test_rsync_relative_semantics(self, given, expected):
        assert remote_relpath(given) == expected

    @pytest.mark.parametrize("bad", ["../escape", "a/../../b", "", "./"])
    def test_escapes_and_empties_rejected(self, bad):
        with pytest.raises(StagingError):
            remote_relpath(bad)


class TestStagingPolicy:
    def opts(self, **kw):
        kw.setdefault("sshlogin", ["2/h1,2/h2"])
        return Options(jobs=2, **kw)

    def test_from_options_roundtrip(self):
        pol = StagingPolicy.from_options(self.opts(
            transfer_files=["in/{}.txt"], return_files=["out/{}.txt"],
            cleanup=True, basefiles=["model.bin"], workdir="...",
        ))
        assert pol.active and pol.cleanup and pol.workdir == "..."

    def test_inactive_when_nothing_to_stage(self):
        assert not StagingPolicy.from_options(self.opts()).active

    def test_paths_rendered_per_job(self):
        pol = StagingPolicy.from_options(self.opts(
            transfer_files=["/abs/in/{}.dat"], return_files=["out/{#}.txt"],
        ))
        assert pol.transfer_paths(job(seq=3, arg="x"), slot=1) == [
            ("/abs/in/x.dat", "abs/in/x.dat")
        ]
        assert pol.return_paths(job(seq=3, arg="x"), slot=1) == [
            ("out/3.txt", "out/3.txt")
        ]

    def test_literal_path_not_appended_with_input(self):
        # implicit-append must not turn "data.txt" into "data.txt {}".
        pol = StagingPolicy.from_options(self.opts(transfer_files=["data.txt"]))
        assert pol.transfer_paths(job(arg="x"), slot=1) == [("data.txt", "data.txt")]

    def test_stage_in_puts_and_reports_relpaths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "a.txt").write_text("hello")
        pol = StagingPolicy.from_options(self.opts(transfer_files=["in/{}.txt"]))
        st = SimTransport()
        staged = pol.stage_in(st, H1, job(arg="a"), 1, "w")
        assert staged == ["in/a.txt"]
        assert st.files["h1"]["in/a.txt"] == b"hello"

    def test_stage_out_success_requires_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pol = StagingPolicy.from_options(self.opts(return_files=["out/{}.txt"]))
        st = SimTransport()
        with pytest.raises(StagingError):
            pol.stage_out(st, H1, job(arg="a"), 1, "w", job_ok=True)

    def test_stage_out_failure_forgives_missing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pol = StagingPolicy.from_options(self.opts(return_files=["out/{}.txt"]))
        st = SimTransport()
        assert pol.stage_out(st, H1, job(arg="a"), 1, "w", job_ok=False) == []

    def test_stage_out_fetches_what_exists(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pol = StagingPolicy.from_options(self.opts(return_files=["out/{}.txt"]))
        st = SimTransport()
        st.provide(H1, "out/a.txt", b"done\n")
        fetched = pol.stage_out(st, H1, job(arg="a"), 1, "w", job_ok=True)
        assert fetched == ["out/a.txt"]
        assert (tmp_path / "out" / "a.txt").read_bytes() == b"done\n"

    def test_cleanup_removes_deduped(self, tmp_path):
        pol = StagingPolicy(cleanup=True)
        st = SimTransport()
        for rel, content in (("a", b"1"), ("b", b"2")):
            (tmp_path / rel).write_bytes(content)
            pol.cache.ensure(st, H1, str(tmp_path / rel), rel, "w")
        assert pol.cleanup_remote(st, H1, ["a", "b", "a"], "w") == 2

    def test_cleanup_noop_unless_enabled(self):
        pol = StagingPolicy(cleanup=False)
        st = SimTransport()
        st.provide(H1, "a", b"1")
        assert pol.cleanup_remote(st, H1, ["a"], "w") == 0
        assert "a" in st.files["h1"]

    def test_basefiles_staged_once_per_host(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"weights")
        pol = StagingPolicy.from_options(self.opts(basefiles=["model.bin"]))
        st = SimTransport()
        for _ in range(3):
            pol.stage_basefiles(st, H1, "w")
        pol.stage_basefiles(st, H2, "w")
        # One put per host despite repeated calls: clock charged once each.
        assert st.files["h1"]["model.bin"] == b"weights"
        assert st.files["h2"]["model.bin"] == b"weights"
        one_put = st.elapsed(H1)
        assert st.elapsed(H2) == pytest.approx(one_put)

    def test_basefile_failure_allows_retry(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pol = StagingPolicy.from_options(self.opts(basefiles=["missing.bin"]))
        st = SimTransport()
        with pytest.raises(StagingError):
            pol.stage_basefiles(st, H1, "w")
        (tmp_path / "missing.bin").write_bytes(b"late")
        pol.stage_basefiles(st, H1, "w")  # the retry succeeds
        assert st.files["h1"]["missing.bin"] == b"late"

    def test_basefile_concurrent_waits_for_inflight_push(
        self, tmp_path, monkeypatch
    ):
        """Regression: the old mark-before-push set let a second job skip
        staging and run while the basefile was still in flight.  A
        concurrent call must *block until the push has finished*."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"weights")
        pol = StagingPolicy.from_options(self.opts(basefiles=["model.bin"]))
        put_started = threading.Event()
        release_put = threading.Event()

        class SlowTransport(SimTransport):
            def put(self, host, src, relpath, workdir):
                put_started.set()
                release_put.wait(5.0)
                return super().put(host, src, relpath, workdir)

        st = SlowTransport()
        first_done = threading.Event()
        second_done = threading.Event()

        def first():
            pol.stage_basefiles(st, H1, "w")
            first_done.set()

        def second():
            pol.stage_basefiles(st, H1, "w")
            second_done.set()

        t1 = threading.Thread(target=first, daemon=True)
        t1.start()
        assert put_started.wait(5.0)
        t2 = threading.Thread(target=second, daemon=True)
        t2.start()
        # The push is still in flight: neither caller may have returned.
        assert not second_done.wait(0.1)
        release_put.set()
        assert first_done.wait(5.0) and second_done.wait(5.0)
        t1.join(5.0)
        t2.join(5.0)
        assert st.files["h1"]["model.bin"] == b"weights"
        # And exactly one physical push happened.
        assert st.elapsed(H1) == pytest.approx(
            st.model.transfer_time(len(b"weights"))
        )

    def test_basefiles_restaged_after_host_invalidation(
        self, tmp_path, monkeypatch
    ):
        """A dropped host keeps nothing: neither its cache entries nor its
        basefile gate survive, so the next stage pushes again."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"weights")
        pol = StagingPolicy.from_options(self.opts(basefiles=["model.bin"]))
        st = SimTransport()
        pol.stage_basefiles(st, H1, "w")
        st.files["h1"].clear()  # the host lost its filesystem
        pol.invalidate_host("h1")
        pol.stage_basefiles(st, H1, "w")
        assert st.files["h1"]["model.bin"] == b"weights"

    def test_basefile_dedups_against_transferfile(self, tmp_path, monkeypatch):
        # With the cache, a --transferfile resolving to the same remote
        # path as an already-staged --basefile never re-pushes.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"weights")
        pol = StagingPolicy.from_options(self.opts(
            basefiles=["model.bin"], transfer_files=["model.bin"],
        ))
        st = SimTransport()
        pol.stage_basefiles(st, H1, "w")
        before = st.elapsed(H1)
        pol.stage_in(st, H1, job(arg="x"), 1, "w")
        assert st.elapsed(H1) == pytest.approx(before)  # no second put
        stats = pol.staging_stats()
        assert stats["cache_hits"] == 1 and stats["files_staged"] == 1


class TestCachedCleanup:
    def opts(self, **kw):
        kw.setdefault("sshlogin", ["2/h1,2/h2"])
        return Options(jobs=2, **kw)

    def test_shared_input_survives_until_last_release(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "shared.txt").write_bytes(b"x")
        pol = StagingPolicy.from_options(self.opts(
            transfer_files=["shared.txt"], cleanup=True,
        ))
        st = SimTransport()
        pol.stage_in(st, H1, job(seq=1), 1, "w")
        pol.stage_in(st, H1, job(seq=2), 2, "w")
        pol.cleanup_remote(st, H1, ["shared.txt"], "w")
        assert "shared.txt" in st.files["h1"]  # job 2 still references it
        pol.cleanup_remote(st, H1, ["shared.txt"], "w")
        assert "shared.txt" not in st.files["h1"]

    def test_fetched_outputs_always_removed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.txt").write_bytes(b"x")
        pol = StagingPolicy.from_options(self.opts(
            transfer_files=["in.txt"], cleanup=True,
        ))
        st = SimTransport()
        pol.stage_in(st, H1, job(seq=1), 1, "w")
        pol.stage_in(st, H1, job(seq=2), 2, "w")
        st.provide(H1, "out.txt", b"result")
        pol.cleanup_remote(st, H1, ["in.txt"], "w", fetched=("out.txt",))
        # The per-job output goes; the still-referenced input stays.
        assert "out.txt" not in st.files["h1"]
        assert "in.txt" in st.files["h1"]


class TestOptionsValidation:
    def test_staging_flags_require_remote(self):
        from repro.errors import OptionsError

        with pytest.raises(OptionsError):
            Options(transfer_files=["x"])
        with pytest.raises(OptionsError):
            Options(cleanup=True)
        with pytest.raises(OptionsError):
            Options(return_files=["y"], basefiles=["z"])

    def test_remote_property(self):
        assert Options(sshlogin=["n1"]).remote
        assert Options(sshloginfile="hosts.txt").remote
        assert not Options().remote

    def test_ban_after_validated(self):
        from repro.errors import OptionsError

        with pytest.raises(OptionsError):
            Options(ban_after=0)
