"""``JobResult``'s dataclass contract: every backend builds one per job,
and sinks, the joblog, pickled worker replies and ``Parallel.map`` read it."""

import dataclasses
import inspect
import pickle

import pytest

from repro.core.job import JobResult, JobState
from repro.core.scheduler import _without_stdout

FIELDS = [
    ("seq", dataclasses.MISSING),
    ("args", dataclasses.MISSING),
    ("command", dataclasses.MISSING),
    ("exit_code", dataclasses.MISSING),
    ("stdout", ""),
    ("stderr", ""),
    ("start_time", 0.0),
    ("end_time", 0.0),
    ("slot", 0),
    ("host", ""),
    ("attempt", 1),
    ("state", JobState.SUCCEEDED),
    ("value", None),
]


def _full(**overrides):
    kwargs = dict(
        seq=7, args=("a", "b"), command="echo a b", exit_code=3,
        stdout="out", stderr="err", start_time=1.5, end_time=2.25, slot=4,
        host="h1", attempt=2, state=JobState.FAILED, value=("v", 1),
    )
    kwargs.update(overrides)
    return JobResult(**kwargs)


def test_fields_names_order_and_defaults():
    fields = dataclasses.fields(JobResult)
    assert [(f.name, f.default) for f in fields] == FIELDS


def test_init_signature_matches_fields():
    # __init__ is written by hand; a field added to the class alone fails here.
    params = list(inspect.signature(JobResult.__init__).parameters.values())[1:]
    fields = dataclasses.fields(JobResult)
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields
    ]


def test_defaults_fill_in():
    r = JobResult(1, ("x",), "cmd", 0)
    assert [getattr(r, name) for name, _ in FIELDS[4:]] == [d for _, d in FIELDS[4:]]


def test_assignment_raises_frozen_instance_error():
    r = _full()
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.stdout = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.seq


def test_equality_and_hash_agree():
    a, b = _full(), _full()
    assert a is not b and a == b and hash(a) == hash(b)
    assert _full(slot=5) != a
    assert len({a, b, _full(slot=5)}) == 2


def test_replace():
    r = _full()
    s = dataclasses.replace(r, stdout="", attempt=3)
    assert (s.stdout, s.attempt) == ("", 3)
    assert dataclasses.replace(s, stdout="out", attempt=2) == r


def test_pickle_round_trip():
    r = _full()
    assert pickle.loads(pickle.dumps(r)) == r


def test_positional_equals_keyword_construction():
    r = _full()
    assert JobResult(*(getattr(r, name) for name, _ in FIELDS)) == r


def test_without_stdout_keeps_every_other_field():
    r = _full()
    s = _without_stdout(r)
    assert s.stdout == ""
    assert s == dataclasses.replace(r, stdout="")


def test_properties():
    r = _full()
    assert r.runtime == 0.75
    assert not r.ok and _full(exit_code=0).ok


def test_instances_have_no_dict():
    assert not hasattr(_full(), "__dict__")
