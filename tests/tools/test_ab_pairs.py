"""``tools/ab_pairs.py`` aggregation, fed canned result lines (no runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

DEFS = [
    {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _line(jobs_per_s, peak_rss_mb, failed=0):
    """A run's stdout: report text, then its one-line JSON result."""
    doc = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }}
    return "noop_callable: end to end, tracing off\n  {not json\n" + json.dumps(doc) + "\n"


def _pairs(parent, change):
    return [(ab_pairs.last_json(_line(*a)), ab_pairs.last_json(_line(*b)))
            for a, b in zip(parent, change)]


def test_last_json_takes_the_final_object_line():
    assert ab_pairs.last_json(_line(5.0, 1.0))["metrics"]["jobs_per_s"]["value"] == 5.0
    with pytest.raises(ValueError):
        ab_pairs.last_json("no result here\n")


def test_quartiles_match_statistics_and_single_value():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_rule_holds_on_a_clear_win():
    parent = [(100.0 + i, 35.0) for i in range(10)]
    change = [(130.0 + i, 35.0 - 0.1 * (i % 2)) for i in range(10)]
    rows = {r["name"]: r for r in ab_pairs.aggregate(_pairs(parent, change), DEFS)}
    jobs = rows["jobs_per_s"]
    assert (jobs["wins"], jobs["pairs"]) == (10, 10)
    assert jobs["gap"] == 30.0 and jobs["gain"]
    rss = rows["peak_rss_mb"]  # lower is better; five wins, five ties
    assert rss["wins"] == 5 and not rss["gain"]


def test_gain_rule_needs_nine_of_ten_wins():
    parent = [(100.0, 1.0)] * 10
    change = [(200.0, 1.0)] * 8 + [(90.0, 1.0)] * 2
    jobs = ab_pairs.aggregate(_pairs(parent, change), DEFS)[0]
    assert jobs["wins"] == 8 and not jobs["gain"]


def test_gain_rule_needs_a_gap_beyond_the_parent_iqr():
    parent = [(100.0 + 10 * i, 1.0) for i in range(10)]  # IQR 55
    change = [(p + 11.0, 1.0) for p, _ in parent]
    jobs = ab_pairs.aggregate(_pairs(parent, change), DEFS)[0]
    assert jobs["wins"] == 10 and jobs["gap"] == pytest.approx(11.0)
    assert jobs["parent_iqr"] == pytest.approx(55.0) and not jobs["gain"]


def test_report_prints_every_pair_and_the_verdict():
    parent = [(100.0, 35.0), (101.0, 35.0)]
    change = [(130.0, 34.0), (131.0, 34.0)]
    text = ab_pairs.report(_pairs(parent, change), DEFS)
    assert text.count("parent ") >= 2 and text.count("change ") >= 2
    assert "2/2" in text and "holds" in text


def test_gain_rule_fails_when_the_change_fails_more_jobs():
    parent = [(100.0 + i, 35.0) for i in range(10)]
    change = [(130.0 + i, 35.0, 1 if i == 0 else 0) for i in range(10)]
    jobs = ab_pairs.aggregate(_pairs(parent, change), DEFS)[0]
    assert jobs["wins"] == 10 and jobs["gap"] == 30.0 and not jobs["gain"]


def test_bound_check_flags_a_worsening_past_the_bound():
    parent = [(100.0, 30.0)] * 4
    change = [(85.0, 34.0)] * 4  # jobs/s 15% worse (bound 20%), RSS 13% worse (bound 10%)
    rows = {r["name"]: r for r in ab_pairs.aggregate(_pairs(parent, change), DEFS)}
    assert rows["jobs_per_s"]["worse"] == pytest.approx(0.15)
    assert rows["jobs_per_s"]["verdict"] == "inside"
    assert rows["peak_rss_mb"]["worse"] == pytest.approx(4 / 30)
    assert rows["peak_rss_mb"]["verdict"] == "OUTSIDE"
    assert "OUTSIDE" in ab_pairs.report(_pairs(parent, change), DEFS)


def test_bound_check_is_unresolved_when_spread_exceeds_the_bound():
    parent = [(v, 30.0) for v in (50.0, 100.0, 150.0, 100.0)]  # IQR/median 0.75 > 0.2
    change = [(v, 30.0) for v in (40.0, 90.0, 140.0, 90.0)]
    jobs = ab_pairs.aggregate(_pairs(parent, change), DEFS)[0]
    assert jobs["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    change = [(160.0 + v, 30.0) for v in (0.0, 50.0, 100.0, 50.0)]
    assert ab_pairs.aggregate(_pairs(parent, change), DEFS)[0]["verdict"] == "inside"
