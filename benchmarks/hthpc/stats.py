"""Order statistics the harness and the child share."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence


def summarise(values: Sequence[float], unit: str) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "unit": unit,
    }


def spread(summary: dict) -> float:
    """Interquartile range as a share of the median."""
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * p / 100)) - 1]


def slot_metrics(
    intervals: Iterable[tuple[object, float, float]], j: int
) -> Optional[dict]:
    """Slot occupancy and refill gaps from ``(slot, start, end)`` per job.

    ``slot_utilization`` is the busy share of ``j`` slots over the
    makespan; a refill gap is the time from one job's end to the next
    job's start on the same slot.
    """
    by_slot: dict[object, list[tuple[float, float]]] = {}
    for slot, start, end in intervals:
        by_slot.setdefault(slot, []).append((start, end))
    if not by_slot:
        return None
    busy = 0.0
    gaps: list[float] = []
    first, last = float("inf"), 0.0
    for spans in by_slot.values():
        spans.sort()
        busy += sum(end - start for start, end in spans)
        first = min(first, spans[0][0])
        last = max(last, max(end for _start, end in spans))
        gaps.extend(
            (nxt[0] - prev[1]) * 1e3 for prev, nxt in zip(spans, spans[1:])
        )
    out = {
        "slot_utilization": busy / (j * (last - first)),
        "refill_samples": len(gaps),
    }
    if gaps:
        gaps.sort()
        out["refill_ms_p50"] = percentile(gaps, 50)
        out["refill_ms_p99"] = percentile(gaps, 99)
    return out
