"""E6 / Fig. 7 — the Darshan staged NVMe-prefetch pipeline.

Five datasets; stage 1 processes from Lustre while dataset 2 prefetches;
stages 2-5 process from NVMe, prefetch ahead, and delete behind.  Claims:

* Lustre stage ≈ 86 min, NVMe stages ≈ 68 min each;
* total 358 min vs 430 min all-Lustre baseline — ≈17% improvement;
* only one dataset is ever processed straight from Lustre (fewer "hits").

Also includes the ablation from DESIGN.md §5: no-prefetch (process each
dataset from Lustre) vs the pipeline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.analysis import render_table
from repro.sim import Environment
from repro.storage.filesystem import make_lustre, make_nvme
from repro.workloads.darshan import DarshanPipelineConfig, run_staged_pipeline


def run_pipeline():
    env = Environment()
    lustre = make_lustre(env)
    nvme = make_nvme(env)
    return run_staged_pipeline(env, lustre, nvme, DarshanPipelineConfig())


def test_fig7_staged_pipeline(benchmark, report_file):
    report = run_once(benchmark, run_pipeline)

    rows = [
        {
            "stage": i + 1,
            "source": "lustre" if i == 0 else "nvme",
            "minutes": t / 60.0,
        }
        for i, t in enumerate(report.stage_times)
    ]
    rows.append({"stage": "total", "source": "pipeline", "minutes": report.total_time / 60})
    rows.append(
        {"stage": "total", "source": "all-lustre", "minutes": report.baseline_all_lustre / 60}
    )
    table = render_table(
        "Fig. 7 - Darshan staged pipeline (per-stage minutes)",
        ["stage", "source", "minutes"],
        rows,
        floatfmt="{:.1f}",
    )
    table += (
        f"\nImprovement vs all-Lustre: {report.improvement:.1%} (paper: ~17%)"
        f"\nDirect Lustre processing stages: {report.lustre_reads} of "
        f"{len(report.stage_times)}"
    )
    report_file("fig7_darshan_pipeline", table)

    minutes = [t / 60 for t in report.stage_times]
    assert minutes[0] == pytest.approx(86, rel=0.05)       # paper: 86 min
    for m in minutes[1:]:
        assert m == pytest.approx(68, rel=0.05)            # paper: 68 min
    assert report.total_time / 60 == pytest.approx(358, rel=0.05)   # paper: 358
    assert report.baseline_all_lustre / 60 == pytest.approx(430, rel=0.05)
    assert report.improvement == pytest.approx(0.17, abs=0.02)      # paper: 17%
    assert report.lustre_reads == 1
