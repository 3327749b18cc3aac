"""Schema smoke test for the hthpc benchmark (outside tier-1).

Run with ``pytest benchmarks/hthpc -q``: one ``--quick`` pass, then every
workload and metric that ``BENCHMARK.json`` names must appear in the
result document with a unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_reports_every_named_workload_and_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--label", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads((HERE / "results" / "smoke.json").read_text(encoding="utf-8"))

    assert contract["paths"] == ["benchmarks/hthpc"]
    names = [w["name"] for w in contract["workloads"]]
    assert sorted(names) == sorted(doc["workloads"])
    for key in ("seed", "nproc", "python", "kernel"):
        assert key in doc
    for name in names:
        assert NAME.fullmatch(name)
        entry = doc["workloads"][name]
        assert entry["failed"] == 0
        assert entry["e2e"]["failed_share"]["median"] == 0
        for metric in contract["end_to_end"]:
            got = entry["e2e"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["n"] >= 1
            assert got["median"] > 0
        for metric in contract["per_layer"]:
            got = entry["layers"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        # Every metric is also printed by name.
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s", proc.stdout, re.M)


def test_contract_names_and_whys_match_the_workload_table():
    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(HERE))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for w in contract["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
