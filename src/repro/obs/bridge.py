"""Bridges between traces, spans, joblogs and the profile analysis.

The paper's conclusion pitches GNU Parallel as a tool to "extract
parallel profiles from application executions"; this module closes the
loop by feeding finished spans (or an exported Chrome trace) into
:mod:`repro.analysis.profile`, so the same
:class:`~repro.analysis.profile.ParallelProfile` the joblog path
computes comes straight from a trace.

Also here: the multi-shard trace merger the drivers use (one ``pid``
per node/instance in the merged file) and the simulated-run exporter.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.obs.events import JobSpan
from repro.obs.sinks import attempt_trace_event, process_name_event

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.profile import ParallelProfile
    from repro.obs.tracer import RunTracer
    from repro.simengine.task import SimTaskResult

__all__ = [
    "attempt_intervals",
    "intervals_from_trace",
    "load_trace",
    "profile_from_spans",
    "profile_from_trace",
    "write_merged_trace",
    "write_sim_trace",
]


def attempt_intervals(
    spans: Iterable[JobSpan],
) -> "tuple[list[float], list[float]]":
    """(starts, ends) of every closed attempt across ``spans``.

    Every attempt is an interval — retried attempts included — which is
    exactly the population a joblog records (one line per attempt), so
    profiles from the two sources agree.
    """
    starts: list[float] = []
    ends: list[float] = []
    for span in spans:
        for att in span.attempts:
            if att.t_start is not None and att.t_end is not None:
                starts.append(att.t_start)
                ends.append(att.t_end)
    return starts, ends


def profile_from_spans(spans: Iterable[JobSpan]) -> "ParallelProfile":
    """A :class:`ParallelProfile` computed from finished spans."""
    from repro.analysis.profile import profile_intervals

    starts, ends = attempt_intervals(spans)
    return profile_intervals(starts, ends)


def load_trace(path: str) -> dict:
    """Load a Chrome trace file written by :class:`ChromeTraceSink`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def intervals_from_trace(path: str) -> "tuple[list[float], list[float]]":
    """(starts, ends) in seconds of every job-attempt ("X", cat ``job``)
    event in a trace.  Backend overhead spans (spawn/reap) are complete
    events too, but carry cat ``backend`` — they are
    instrumentation, not attempts, and must not skew the profile."""
    doc = load_trace(path)
    starts: list[float] = []
    ends: list[float] = []
    for event in doc.get("traceEvents", []):
        if event.get("ph") == "X" and event.get("cat", "job") == "job":
            ts = float(event["ts"]) / 1e6
            starts.append(ts)
            ends.append(ts + float(event["dur"]) / 1e6)
    return starts, ends


def profile_from_trace(path: str) -> "ParallelProfile":
    """A :class:`ParallelProfile` computed directly from a trace file."""
    from repro.analysis.profile import profile_intervals

    starts, ends = intervals_from_trace(path)
    return profile_intervals(starts, ends)


def write_merged_trace(path: str, tracers: "Sequence[RunTracer]") -> int:
    """Merge per-node/instance tracers into one Chrome trace file.

    Each tracer becomes one ``pid`` (named after its node id) so the
    viewer shows per-node shard streams side by side.  Tracers sharing a
    node id (e.g. a shard wave and its rescue wave on the same instance)
    share a pid.  Returns the number of job events written.
    """
    pids: dict[str, int] = {}
    events: list[dict] = []
    n_jobs = 0
    for tracer in tracers:
        node = tracer.node or "node0"
        if node not in pids:
            pids[node] = len(pids)
            events.append(process_name_event(pids[node], f"pyparallel {node}"))
        pid = pids[node]
        for span in tracer.spans.values():
            for att in span.attempts:
                if att.t_start is None or att.t_end is None:
                    continue
                events.append(
                    attempt_trace_event(
                        pid, att.seq, att.attempt, att.slot,
                        att.t_start, att.t_end,
                        state=att.state, exit_code=att.exit_code,
                        retried=att.retried,
                    )
                )
                n_jobs += 1
    _dump_trace(path, events, {"nodes": sorted(pids)})
    return n_jobs


def write_sim_trace(
    path: str,
    results: "Iterable[SimTaskResult]",
    time_scale: float = 1.0,
    meta: Optional[dict] = None,
) -> int:
    """Export simulated task results as a Chrome trace (pid per node).

    Simulated times are relative seconds; ``time_scale`` lets callers
    map them (default 1:1).  Returns the number of task events written.
    """
    pids: dict[str, int] = {}
    events: list[dict] = []
    n_tasks = 0
    for r in results:
        node = r.node or "sim"
        if node not in pids:
            pids[node] = len(pids)
            events.append(process_name_event(pids[node], node))
        events.append(
            attempt_trace_event(
                pids[node], r.seq, r.attempt, r.slot,
                r.launch_time * time_scale, r.end_time * time_scale,
                state="succeeded" if r.ok else (r.failure_mode or "failed"),
            )
        )
        n_tasks += 1
    _dump_trace(path, events, {"nodes": sorted(pids), **(meta or {})})
    return n_tasks


def _dump_trace(path: str, events: list[dict], other: dict) -> None:
    doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
    with open(path, "w", encoding="utf-8") as fh:
        # One-shot dumps: json's C encoder (dump() streams via the slower
        # pure-Python path).
        fh.write(json.dumps(doc))
        fh.write("\n")
