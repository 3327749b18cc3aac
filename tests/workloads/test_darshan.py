"""Darshan substrate: log format, analysis task, and the Fig. 7 pipeline."""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.sim import Environment
from repro.storage.filesystem import make_lustre, make_nvme
from repro.workloads.darshan import (
    DarshanPipelineConfig,
    DarshanRecord,
    aggregate_records,
    darshan_arch,
    generate_archive,
    generate_darshan_log,
    parse_darshan_log,
    run_staged_pipeline,
)


def test_log_roundtrip(tmp_path):
    path = str(tmp_path / "m.dsyn")
    written = generate_darshan_log(path, 3, np.random.default_rng(0), n_jobs=20)
    read = parse_darshan_log(path)
    assert read == written
    assert all(r.month == 3 for r in read)


def test_generate_rejects_bad_month(tmp_path):
    with pytest.raises(ReproError):
        generate_darshan_log(str(tmp_path / "x"), 13, np.random.default_rng(0))


def test_parse_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.dsyn"
    p.write_text("NOTDSYN\n")
    with pytest.raises(ReproError):
        parse_darshan_log(str(p))


def test_record_line_roundtrip():
    rec = DarshanRecord(1, "climate_sim", 2, 64, "POSIX", 100, 50, 7, 12.5)
    assert DarshanRecord.from_line(rec.to_line()) == rec


def test_record_malformed_line():
    with pytest.raises(ReproError):
        DarshanRecord.from_line("1\t2\t3")


def test_aggregate_totals():
    recs = [
        DarshanRecord(1, "a", 1, 1, "POSIX", 10, 5, 2, 1.0),
        DarshanRecord(2, "a", 1, 1, "MPIIO", 30, 10, 3, 1.0),
    ]
    agg = aggregate_records(recs)
    assert agg["bytes_read"] == 40
    assert agg["bytes_written"] == 15
    assert agg["files_opened"] == 5
    assert agg["top_module"] == "MPIIO"
    assert agg["read_write_ratio"] == pytest.approx(40 / 15)


def test_aggregate_empty():
    agg = aggregate_records([])
    assert agg["n_records"] == 0 and agg["top_module"] is None


def test_archive_generation(tmp_path):
    paths = generate_archive(str(tmp_path / "arch"), months=[1, 2], n_jobs=5)
    assert len(paths) == 2
    assert all(os.path.exists(p) for p in paths)


def test_darshan_arch_task(tmp_path):
    arch = str(tmp_path / "arch")
    out = str(tmp_path / "out")
    generate_archive(arch, months=[4], n_jobs=40, seed=1)
    out_path = darshan_arch("4", "0", arch, out)
    summary = json.load(open(out_path))
    assert summary["month"] == 4
    assert summary["app"] == "climate_sim"
    assert summary["n_records"] >= 0


def test_darshan_arch_bad_app(tmp_path):
    with pytest.raises(ReproError):
        darshan_arch("1", "9", str(tmp_path), str(tmp_path))


# ------------------------------------------------------------ Fig. 7 pipeline
def minutes(x):
    return x / 60.0


def run_pipeline(config=None):
    env = Environment()
    lustre = make_lustre(env)
    nvme = make_nvme(env)
    return run_staged_pipeline(env, lustre, nvme, config or DarshanPipelineConfig())


def test_pipeline_stage_times_match_paper():
    report = run_pipeline()
    stages_min = [minutes(t) for t in report.stage_times]
    # Stage 1 (Lustre) ~86 min; stages 2-5 (NVMe) ~68 min each.
    assert stages_min[0] == pytest.approx(86, rel=0.03)
    for t in stages_min[1:]:
        assert t == pytest.approx(68, rel=0.03)


def test_pipeline_total_and_improvement_match_paper():
    report = run_pipeline()
    assert minutes(report.total_time) == pytest.approx(358, rel=0.03)
    assert minutes(report.baseline_all_lustre) == pytest.approx(430, rel=0.03)
    assert report.improvement == pytest.approx(0.17, abs=0.02)


def test_pipeline_prefetch_hides_behind_processing():
    report = run_pipeline()
    # Every prefetch is shorter than an NVMe processing stage.
    assert all(p < min(report.stage_times[1:]) for p in report.prefetch_times)


def test_pipeline_only_one_direct_lustre_read_stage():
    report = run_pipeline()
    assert report.lustre_reads == 1


def test_pipeline_deletes_processed_datasets():
    env = Environment()
    lustre = make_lustre(env)
    nvme = make_nvme(env)
    run_staged_pipeline(env, lustre, nvme, DarshanPipelineConfig())
    # Only the last prefetched dataset may remain on NVMe.
    remaining = [e.path for e in nvme.list_files("/nvme/darshan/")]
    assert len(remaining) <= 1


def test_pipeline_single_dataset_degenerates():
    report = run_pipeline(DarshanPipelineConfig(n_datasets=1))
    assert len(report.stage_times) == 1
    assert report.prefetch_times == []


def test_pipeline_config_validation():
    with pytest.raises(ReproError):
        DarshanPipelineConfig(n_datasets=0)


def test_darshan_cli_via_shell_engine(tmp_path):
    """Drive darshan_cli with the real subprocess engine (Listing 5 shape)."""
    import sys

    from repro import Parallel
    from repro.workloads.darshan_cli import main as cli_main

    arch, out = str(tmp_path / "arch"), str(tmp_path / "out")
    generate_archive(arch, months=[1, 2], n_jobs=10, seed=5)
    # Direct CLI invocation.
    assert cli_main(["1", "0", "--archive", arch, "--out", out]) == 0
    # Through the shell engine, exactly as the paper runs it.
    cmd = (f"{sys.executable} -m repro.workloads.darshan_cli "
           f"--archive {arch} --out {out} {{1}} {{2}}")
    summary = Parallel(cmd, jobs=4).run_sources([["1", "2"], ["0", "1", "2"]])
    assert summary.ok and summary.n_succeeded == 6
    assert len(list((tmp_path / "out").glob("summary_*.json"))) == 6


def test_darshan_cli_error_paths(tmp_path):
    from repro.workloads.darshan_cli import main as cli_main

    code = cli_main(["1", "9", "--archive", str(tmp_path), "--out", str(tmp_path)])
    assert code == 1
