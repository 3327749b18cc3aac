"""``tools/runner_gap.py`` on a few ``true`` jobs: what it prints."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "runner_gap.py"
_spec = importlib.util.spec_from_file_location("runner_gap", _PATH)
runner_gap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner_gap)


def _fields(line: str) -> dict:
    name, *rest = line.split()
    return {"side": name, **{k: float(v) for k, v in zip(rest[::2], rest[1::2])}}


def test_prints_both_sides_and_their_ratio(capsys):
    runner_gap.main(["--jobs", "20", "-j", "4", "--rounds", "2"])
    lines = [_fields(line) for line in capsys.readouterr().out.splitlines()]
    assert [f["side"] for f in lines] == ["engine", "runner", "ratio"]
    engine, runner, ratio = lines
    rates = ["jobs/s", "coord_us/job", "child_us/job"]
    assert list(engine)[1:] == rates + ["caller_share"]
    assert list(runner)[1:] == list(ratio)[1:] == rates
    assert all(engine[k] > 0 and runner[k] > 0 for k in rates)
    assert 0 < engine["caller_share"] <= 1
    assert ratio["jobs/s"] == pytest.approx(engine["jobs/s"] / runner["jobs/s"], rel=0.01)
