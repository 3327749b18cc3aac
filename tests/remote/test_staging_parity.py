"""Staging parity: the cache must never change job-visible output.

The content-addressed cache is a pure *cost* optimization: every run
here asserts byte-for-byte the stdout, joblog accounting (seqs, exit
codes) and returned files that the inputs alone determine.  The
host-death legs that hold the same guarantee across re-placement and
cache invalidation live in ``tests/chaos/test_remote_chaos.py`` and
reuse :func:`run_variant`, :func:`observable` and :func:`baseline`.
"""

import os

import pytest

from repro.core.engine import Parallel
from repro.core.joblog import read_joblog
from repro.core.template import CommandTemplate
from repro.remote import LocalTransport, RemoteBackend, parse_sshlogin

# One slot per host: each host runs its jobs one after another, so the
# cache counters asserted below do not depend on same-host interleaving.
FOUR_HOSTS = "1/n1,1/n2,1/n3,1/n4"
COMMAND = (
    "mkdir -p out && cat in/shared.txt in/{}.txt > out/{}.txt "
    "&& cat out/{}.txt"
)
INPUTS = [f"f{i:02d}" for i in range(10)]
SHARED = "SHARED PAYLOAD\n" * 64


def populate(root):
    (root / "in").mkdir()
    (root / "in" / "shared.txt").write_text(SHARED)
    for name in INPUTS:
        (root / "in" / f"{name}.txt").write_text(f"payload of {name}\n")


def run_variant(root, *, transport=None, **kw):
    populate(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        kw.setdefault("jobs", 2)
        kw.setdefault("sshlogin", [FOUR_HOSTS])
        kw.setdefault("transfer_files", ["in/shared.txt", "in/{}.txt"])
        kw.setdefault("return_files", ["out/{}.txt"])
        kw.setdefault("cleanup", True)
        kw.setdefault("keep_order", True)
        kw.setdefault("joblog", str(root / "joblog.tsv"))
        engine = Parallel(COMMAND, **kw)
        if transport is not None:
            backend = RemoteBackend(
                parse_sshlogin(kw["sshlogin"][0]), transport,
                template=CommandTemplate(COMMAND),
            )
            engine = Parallel(COMMAND, backend=backend, **kw)
        summary = engine.run(INPUTS)
    finally:
        os.chdir(cwd)
    return summary


def observable(root, summary):
    """Everything a user can see from a run: stdout, exits, files, joblog."""
    stdout = {r.seq: r.stdout for r in summary.results}
    exits = {r.seq: r.exit_code for r in summary.results}
    returned = {
        name: (root / "out" / f"{name}.txt").read_bytes() for name in INPUTS
    }
    log = {
        e.seq: e.exitval for e in read_joblog(str(root / "joblog.tsv"))
    }
    return {
        "stdout": stdout, "exits": exits, "returned": returned, "joblog": log,
    }


@pytest.fixture
def baseline():
    """The observables every variant must show, computed from the inputs."""
    seqs = range(1, len(INPUTS) + 1)
    expected = {
        seq: SHARED + f"payload of {name}\n" for seq, name in zip(seqs, INPUTS)
    }
    return {
        "stdout": expected,
        "exits": {seq: 0 for seq in seqs},
        "returned": {
            name: expected[seq].encode() for seq, name in zip(seqs, INPUTS)
        },
        "joblog": {seq: 0 for seq in seqs},
    }


class TestParity:
    def test_cached_matches_uncached(self, tmp_path, baseline):
        root = tmp_path / "cached"
        root.mkdir()
        summary = run_variant(root)
        assert summary.ok
        assert observable(root, summary) == baseline
        assert summary.staging["files_staged"] > 0
        # With --cleanup and one slot per host every sequential job is
        # the last referencer, so zero hits here is *correct*: eviction
        # between jobs is exactly what deferred refcounted cleanup does.

    def test_cached_without_cleanup_dedups_shared_input(
        self, tmp_path, baseline
    ):
        """Without --cleanup entries persist for the whole run, so the
        shared input is staged at most once per host: 10 jobs over 4
        hosts must see >= 6 hits.  Cleanup only touches remote workdirs,
        which the user-visible observables cannot see — parity holds."""
        root = tmp_path / "nocleanup"
        root.mkdir()
        summary = run_variant(root, cleanup=False)
        assert summary.ok
        assert observable(root, summary) == baseline
        assert summary.staging["cache_hits"] >= len(INPUTS) - 4
        assert summary.staging["bytes_staged_avoided"] > 0


def trace_cats(trace_path):
    import json

    doc = json.loads(trace_path.read_text())
    cats = {
        (e.get("name"), e.get("cat"))
        for e in doc["traceEvents"] if e.get("ph") in ("X", "i")
    }
    return doc, cats


class TestTraceSurface:
    def test_trace_carries_staging_category_and_run_totals(self, tmp_path):
        # cleanup=False keeps cache entries alive across sequential jobs
        # on 1-slot hosts, so cache_hit instants are guaranteed.
        root = tmp_path / "traced"
        root.mkdir()
        trace_path = root / "trace.json"
        summary = run_variant(root, cleanup=False, trace=str(trace_path))
        assert summary.ok
        doc, cats = trace_cats(trace_path)
        assert ("stage_in", "staging") in cats
        assert ("cache_hit", "staging") in cats
        staging = doc["otherData"]["staging"]
        assert staging["cache_hits"] > 0
        assert staging["bytes_staged_avoided"] > 0

    def test_trace_carries_cleanup_spans(self, tmp_path):
        root = tmp_path / "traced-cleanup"
        root.mkdir()
        trace_path = root / "trace.json"
        summary = run_variant(root, trace=str(trace_path))
        assert summary.ok
        _doc, cats = trace_cats(trace_path)
        assert ("stage_in", "staging") in cats
        assert ("cleanup", "staging") in cats

    def test_failed_job_emits_cleanup_span(self, tmp_path, monkeypatch):
        """A failed job salvages its --return file and cleans up like a
        successful one, and its trace shows the same cleanup span."""
        root = tmp_path / "failed"
        root.mkdir()
        populate(root)
        hosts = tmp_path / "hosts"
        trace_path = root / "trace.json"
        command = "mkdir -p out && cat in/{}.txt > out/{}.txt; exit 3"
        backend = RemoteBackend(
            parse_sshlogin("1/n1"), LocalTransport(root=str(hosts)),
            template=CommandTemplate(command),
        )
        monkeypatch.chdir(root)
        summary = Parallel(
            command, backend=backend, sshlogin=["1/n1"],
            transfer_files=["in/{}.txt"], return_files=["out/{}.txt"],
            cleanup=True, trace=str(trace_path),
        ).run(["f00"])
        assert [r.exit_code for r in summary.results] == [3]
        doc, _cats = trace_cats(trace_path)
        cleanups = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and (e.get("name"), e.get("cat"))
            == ("cleanup", "staging")
        ]
        assert [e["args"]["seq"] for e in cleanups] == [1]
        assert (root / "out" / "f00.txt").read_text() == "payload of f00\n"
        assert [p for p in hosts.rglob("*") if not p.is_dir()] == []
