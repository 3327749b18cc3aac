"""Benchmark-side spans: recorded around calls into the engine's layers.

Spans live in memory until the harness exits and are then written as
Chrome ``trace_event`` JSON.  Spans *inside* ``src/`` are a later change
(ROADMAP item 1); these wrap the engine from outside.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Iterator


class SpanLog:
    """All spans of one workload's traced pass share ``trace_id``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **args) -> Iterator[dict]:
        record = {
            "id": len(self.spans), "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None, "args": args,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: its durations minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write_chrome_trace(self, path: Path) -> None:
        events = [
            {
                "ph": "X", "name": s["name"], "cat": "hthpc", "pid": 0, "tid": 0,
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {**s["args"], "id": s["id"], "parent": s["parent"],
                         "trace_id": self.trace_id},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"displayTimeUnit": "ms", "traceEvents": events}),
            encoding="utf-8",
        )
