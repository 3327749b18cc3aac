"""Scheduler edge cases and run-profile serialization."""

import json
import threading

import pytest

from repro import Parallel, QueueSource
from repro.errors import OptionsError


def test_jobs_zero_with_list_runs_everything_at_once():
    summary = Parallel("sleep 0.2 # {}", jobs=0).run(list(range(6)))
    assert summary.ok
    # All six overlapped: total span well under serial 1.2 s.
    starts = [r.start_time for r in summary.results]
    ends = [r.end_time for r in summary.results]
    assert max(ends) - min(starts) < 1.0


def test_jobs_zero_with_unbounded_source_rejected():
    q = QueueSource()
    q.put("a")
    q.close()

    def unbounded():
        yield from iter(q)

    with pytest.raises(OptionsError):
        Parallel("echo {}", jobs=0).run(unbounded())


def test_halt_with_queue_source_stops_consumption():
    q = QueueSource()
    for i in range(50):
        q.put("1" if i == 2 else "0")
    q.close()
    summary = Parallel("exit {}", jobs=1, halt="now,fail=1").run(iter(q))
    assert summary.halted
    assert summary.n_dispatched < 50


def test_retry_prioritized_over_new_input(tmp_path):
    """A failing job retries before the scheduler moves deep into input."""
    order = []
    lock = threading.Lock()
    attempts = {}

    def work(x):
        with lock:
            order.append(x)
            attempts[x] = attempts.get(x, 0) + 1
            if x == "a" and attempts[x] == 1:
                raise RuntimeError("first attempt fails")

    summary = Parallel(work, jobs=1, retries=2).run(["a", "b", "c", "d"])
    assert summary.ok
    # "a" reappears promptly: retries outrank fresh input, though the one
    # already-prefetched item may legitimately slip ahead of the retry.
    second_a = order.index("a", 1)
    assert second_a <= 3
    assert order.count("a") == 2


def test_results_with_keep_order(tmp_path):
    root = str(tmp_path / "res")
    emitted = []
    p = Parallel("echo {}", jobs=4, keep_order=True, results=root,
                 output=lambda r, t: emitted.append(t.strip()))
    summary = p.run(["z", "y", "x"])
    assert summary.ok
    assert emitted == ["z", "y", "x"]
    assert (tmp_path / "res" / "1" / "y" / "stdout").exists()


def test_summary_to_dict_and_json(tmp_path):
    summary = Parallel("echo {}", jobs=2).run(["a", "b"])
    d = summary.to_dict()
    assert d["n_succeeded"] == 2
    assert [r["seq"] for r in d["results"]] == [1, 2]
    assert d["results"][0]["state"] == "succeeded"
    path = str(tmp_path / "profile.json")
    summary.write_json(path)
    loaded = json.load(open(path))
    assert loaded == d


def test_profile_timeline_is_consistent():
    summary = Parallel("sleep 0.05 # {}", jobs=2).run(list(range(4)))
    d = summary.to_dict()
    for r in d["results"]:
        assert r["end_time"] >= r["start_time"]
        assert r["runtime"] == pytest.approx(r["end_time"] - r["start_time"])


def test_stdout_stream_output(capsys):
    import sys

    summary = Parallel("echo visible-{}", jobs=1, output=sys.stdout).run(["x"])
    assert summary.ok
    assert "visible-x" in capsys.readouterr().out


def test_emit_callback_receives_result_and_text():
    seen = []
    Parallel("echo {}", jobs=1, output=lambda r, t: seen.append((r.seq, t))).run(["q"])
    assert seen == [(1, "q\n")]


def shout(x):
    return x.upper()


def test_fault_wrapper_keeps_the_callable_in_the_recorded_command():
    from repro.core.backends.callable_backend import CallableBackend
    from repro.faults import FaultPlan, FaultyBackend

    bare = Parallel(shout).run(["a"])
    wrapped = Parallel(
        shout, backend=FaultyBackend(CallableBackend(shout), FaultPlan())
    ).run(["a"])
    assert bare.results[0].command == f"{shout!r}(a)"
    assert wrapped.results[0].command == bare.results[0].command
