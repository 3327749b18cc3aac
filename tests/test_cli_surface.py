"""The command-line surface is a committed list.

Every long option ``pyparallel`` accepts (one name per option: the
longest spelling, so ``--wd``/``--workdir`` counts once) is listed here.
Adding or removing a flag therefore shows up in review as a one-line
diff of this file, and the count is the number the roadmap tracks.
"""

from __future__ import annotations

from repro.core.cli import build_arg_parser

LONG_OPTIONS = [
    "--arg-file",
    "--ban-after",
    "--bar",
    "--basefile",
    "--block",
    "--cleanup",
    "--colsep",
    "--delay",
    "--dispatchers",
    "--dry-run",
    "--fault-plan",
    "--halt",
    "--joblog",
    "--jobs",
    "--keep-order",
    "--linebuffer",
    "--link",
    "--load",
    "--max-args",
    "--max-replace-args",
    "--memfree",
    "--metrics",
    "--nice",
    "--pipe",
    "--quote",
    "--results",
    "--resume",
    "--resume-failed",
    "--retries",
    "--retry-delay",
    "--return",
    "--rpc-batch",
    "--seed",
    "--shuf",
    "--spawn-path",
    "--sshlogin",
    "--sshloginfile",
    "--tag",
    "--tagstring",
    "--timeout",
    "--trace",
    "--transferfile",
    "--ungroup",
    "--workdir",
]


def test_long_options_match_committed_list():
    found = sorted(
        max((s for s in action.option_strings if s.startswith("--")), key=len)
        for action in build_arg_parser()._actions
        if any(s.startswith("--") for s in action.option_strings)
        and "--help" not in action.option_strings
    )
    assert found == LONG_OPTIONS
    assert len(LONG_OPTIONS) == 44
