"""Joblog format compatibility and resume bookkeeping."""

from repro.core.job import JobResult, JobState
from repro.core.joblog import (
    JOBLOG_HEADER,
    JoblogWriter,
    completed_seqs,
    read_joblog,
)


def result(seq, code=0, cmd="echo x", stdout="x\n"):
    return JobResult(
        seq=seq, args=("x",), command=cmd, exit_code=code,
        stdout=stdout, start_time=100.0, end_time=101.5, slot=1,
        host="node1", state=JobState.SUCCEEDED if code == 0 else JobState.FAILED,
    )


def test_header_written(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path):
        pass
    assert open(path).readline().rstrip("\n") == JOBLOG_HEADER


def test_roundtrip(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(1))
        w.write(result(2, code=3))
    entries = read_joblog(path)
    assert [e.seq for e in entries] == [1, 2]
    assert entries[0].ok and not entries[1].ok
    assert entries[0].host == "node1"
    assert entries[0].runtime == 1.5
    assert entries[1].exitval == 3
    assert entries[0].command == "echo x"


def test_field_order_matches_gnu_parallel(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(7, cmd="sleep 1"))
    line = open(path).readlines()[1].rstrip("\n").split("\t")
    assert line[0] == "7"  # Seq
    assert line[1] == "node1"  # Host
    assert float(line[2]) == 100.0  # Starttime
    assert float(line[3]) == 1.5  # JobRuntime
    assert line[6] == "0"  # Exitval
    assert line[8] == "sleep 1"  # Command


def test_tabs_and_newlines_in_command_sanitized(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(1, cmd="echo\ta\nb"))
    entries = read_joblog(path)
    assert entries[0].command == "echo a b"


def test_byte_columns_count_utf8_bytes(tmp_path):
    from repro import Parallel

    path = str(tmp_path / "log")
    summary = Parallel("printf %s {}", jobs=1, joblog=path).run(["é", "abc"])
    assert summary.ok
    assert [r.stdout for r in summary.sorted_results()] == ["é", "abc"]
    # printf 'é' writes two bytes; ASCII text counts one per character.
    assert [e.send for e in read_joblog(path)] == [2, 3]


def test_append_mode_preserves_history(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(1))
    with JoblogWriter(path, append=True) as w:
        w.write(result(2))
    assert [e.seq for e in read_joblog(path)] == [1, 2]


def test_overwrite_mode_truncates(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(1))
    with JoblogWriter(path) as w:
        w.write(result(9))
    assert [e.seq for e in read_joblog(path)] == [9]


def test_read_missing_file():
    assert read_joblog("/nonexistent/joblog") == []


def test_read_skips_malformed_lines(tmp_path):
    path = tmp_path / "log"
    path.write_text(JOBLOG_HEADER + "\n1\tbad\nnot\ta\tvalid\tline\n")
    assert read_joblog(str(path)) == []


def test_completed_seqs_resume_skips_all_attempted(tmp_path):
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        w.write(result(1))
        w.write(result(2, code=1))
    # plain --resume: skip both success and failure
    assert completed_seqs(path, include_failed=True) == {1, 2}
    # --resume-failed: skip only successes
    assert completed_seqs(path, include_failed=False) == {1}


def test_signal_death_fills_the_signal_column(tmp_path):
    # GNU Parallel splits the wait status: a job killed by signal n has
    # Exitval 0 and Signal n.  -1 (never ran) stays in Exitval.
    path = str(tmp_path / "log")
    with JoblogWriter(path) as w:
        for seq, code in enumerate((-9, -15, 137, -1), 1):
            w.write(result(seq, code=code))
    assert [(e.exitval, e.signal) for e in read_joblog(path)] == [
        (0, 9), (0, 15), (137, 0), (-1, 0)]
    assert not any(e.ok for e in read_joblog(path))
