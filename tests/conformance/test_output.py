"""Job output conformance: each job's text is printed verbatim."""

from tests.conformance.conftest import requires_gnu_parallel

#: Output without a trailing newline: GNU Parallel adds none.
NO_NEWLINE = ["-k", "printf", "%s", ":::", "a", "b", "c"]


def test_output_without_newline_printed_verbatim(pyparallel):
    proc = pyparallel(NO_NEWLINE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "abc"


@requires_gnu_parallel
def test_output_without_newline_matches_gnu_parallel(pyparallel, gnu_parallel):
    ours, theirs = pyparallel(NO_NEWLINE), gnu_parallel(NO_NEWLINE)
    assert ours.stdout == theirs.stdout
    assert ours.returncode == theirs.returncode == 0
