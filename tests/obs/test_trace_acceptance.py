"""Acceptance: ``--trace`` output validates and agrees with the joblog.

The ISSUE's bar for the subsystem: a trace written by a real run must
(a) validate against the Chrome trace-event schema and (b) load the same
execution intervals :mod:`repro.analysis.profile` computes from the
joblog — the trace is the joblog's superset, not a parallel truth.
"""

import json

import jsonschema
import pytest

from repro import Parallel
from repro.analysis.profile import (
    intervals_from_joblog,
    profile_from_joblog,
    profile_intervals,
)
from repro.core.options import Options
from repro.obs import (
    CHROME_TRACE_SCHEMA,
    ChromeTraceSink,
    MetricsJsonlSink,
    attempt_intervals,
    intervals_from_trace,
    load_trace,
    profile_from_spans,
    profile_from_trace,
    RunTracer,
)

#: Joblog stamps are quantized to 3 decimals; trace stamps are exact.
JOBLOG_QUANTUM = 0.002


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One real subprocess run recorded by trace, metrics and joblog."""
    td = tmp_path_factory.mktemp("acceptance")
    paths = {
        "trace": str(td / "run.trace.json"),
        "metrics": str(td / "run.metrics.jsonl"),
        "joblog": str(td / "run.joblog.tsv"),
    }
    tracer = RunTracer(
        sinks=[ChromeTraceSink(paths["trace"]), MetricsJsonlSink(paths["metrics"])],
        metrics_interval=0.02,
    )
    options = Options(
        jobs=4, retries=2, tracer=tracer, joblog=paths["joblog"],
    )
    # Seqs divisible by 3 fail once per attempt budget — retries land in
    # both the joblog and the trace.
    engine = Parallel(
        "sh -c 'test $(( {} % 3 )) -ne 0'", options=options
    )
    summary = engine.run(range(1, 13))
    return tracer, summary, paths


def test_trace_validates_against_chrome_schema(traced_run):
    _, _, paths = traced_run
    doc = load_trace(paths["trace"])
    jsonschema.validate(doc, CHROME_TRACE_SCHEMA)
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases and "M" in phases
    assert doc["otherData"]["jobs_cap"] == 4
    assert doc["otherData"]["total"] == 12


def test_trace_has_one_complete_event_per_attempt(traced_run):
    tracer, summary, paths = traced_run
    doc = load_trace(paths["trace"])
    # cat "job" = attempt slices; cat "backend" = spawn/reap overhead spans.
    xs = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "job"
    ]
    assert len(xs) == summary.n_dispatched
    retried = [e for e in xs if e["args"].get("retried")]
    assert len(retried) == summary.n_dispatched - len(summary.results)
    # tid is the slot: never outside the cap.
    assert all(1 <= e["tid"] <= 4 for e in xs)


def test_trace_has_backend_overhead_spans(traced_run):
    """Every real-subprocess attempt carries spawn and reap spans."""
    _, summary, paths = traced_run
    doc = load_trace(paths["trace"])
    spans = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "backend"
    ]
    by_name: dict[str, int] = {}
    for e in spans:
        by_name[e["name"]] = by_name.get(e["name"], 0) + 1
        assert e["dur"] >= 0
        assert e["args"]["path"] in ("posix", "popen")
    assert by_name.get("spawn") == summary.n_dispatched
    assert by_name.get("reap") == summary.n_dispatched


def test_trace_intervals_match_joblog_intervals(traced_run):
    _, _, paths = traced_run
    t_starts, t_ends = intervals_from_trace(paths["trace"])
    j_starts, j_ends = intervals_from_joblog(paths["joblog"])
    assert len(t_starts) == len(j_starts)
    for trace_side, joblog_side in ((t_starts, j_starts), (t_ends, j_ends)):
        for t, j in zip(sorted(trace_side), sorted(joblog_side)):
            assert abs(t - j) <= JOBLOG_QUANTUM


def test_profiles_agree_across_all_three_sources(traced_run):
    tracer, _, paths = traced_run
    from_trace = profile_from_trace(paths["trace"])
    from_spans = profile_from_spans(tracer.spans.values())
    from_joblog = profile_from_joblog(paths["joblog"])
    assert from_trace.n_jobs == from_spans.n_jobs == from_joblog.n_jobs
    # Spans and the trace round-trip exactly (same numbers, µs precision).
    assert from_trace.makespan == pytest.approx(from_spans.makespan, abs=1e-5)
    assert from_trace.total_busy == pytest.approx(from_spans.total_busy, abs=1e-5)
    assert from_trace.peak_concurrency == from_spans.peak_concurrency
    assert from_trace.peak_concurrency <= 4
    # The joblog agrees modulo its 1 ms stamp quantization.
    n = from_joblog.n_jobs
    assert from_trace.makespan == pytest.approx(
        from_joblog.makespan, abs=2 * JOBLOG_QUANTUM
    )
    assert from_trace.total_busy == pytest.approx(
        from_joblog.total_busy, abs=n * 2 * JOBLOG_QUANTUM
    )


def test_span_intervals_equal_trace_intervals_exactly(traced_run):
    tracer, _, paths = traced_run
    s_starts, s_ends = attempt_intervals(tracer.spans.values())
    t_starts, t_ends = intervals_from_trace(paths["trace"])
    assert sorted(t_starts) == pytest.approx(sorted(s_starts), abs=1e-6)
    assert sorted(t_ends) == pytest.approx(sorted(s_ends), abs=1e-6)


def test_metrics_log_brackets_the_run(traced_run):
    tracer, summary, paths = traced_run
    lines = [json.loads(line) for line in open(paths["metrics"])]
    kinds = [line["kind"] for line in lines]
    assert kinds[0] == "run_meta"
    assert kinds[-1] == "run_end"
    assert kinds.count("sample") == len(kinds) - 2 >= 1
    end = lines[-1]
    assert end["n_dispatched"] == summary.n_dispatched
    assert end["n_failed"] == summary.n_failed
    final_sample = [l for l in lines if l["kind"] == "sample"][-1]
    assert final_sample["completed"] == len(summary.results)
    assert final_sample["attempts_done"] == summary.n_dispatched
