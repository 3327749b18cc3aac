"""The pyparallel command-line front end."""

import io
import sys

import pytest

from repro.core.cli import main, split_command_line


def run_cli(argv, stdin_text=""):
    """Run main() capturing stdout; returns (exit_code, stdout)."""
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout = io.StringIO()
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout, sys.stdin = old_out, old_in


# -------------------------------------------------------------- splitting
def test_split_no_separator():
    head, sources = split_command_line(["-j2", "echo", "{}"])
    assert head == ["-j2", "echo", "{}"]
    assert sources == []


def test_split_single_source():
    head, sources = split_command_line(["echo", "{}", ":::", "a", "b"])
    assert head == ["echo", "{}"]
    assert sources == [(":::", ["a", "b"])]


def test_split_multiple_sources():
    head, sources = split_command_line(
        ["cmd", ":::", "a", "::::", "f.txt", ":::+", "x", "y"]
    )
    assert head == ["cmd"]
    assert [s for s, _ in sources] == [":::", "::::", ":::+"]


# ------------------------------------------------------------------ runs
def test_basic_echo():
    code, out = run_cli(["-j2", "-k", "echo", "{}", ":::", "a", "b", "c"])
    assert code == 0
    assert out.splitlines() == ["a", "b", "c"]


def test_two_sources_cartesian():
    code, out = run_cli(["-k", "echo", "{1}-{2}", ":::", "a", "b", ":::", "1", "2"])
    assert code == 0
    assert out.splitlines() == ["a-1", "a-2", "b-1", "b-2"]


def test_linked_sources():
    code, out = run_cli(
        ["-k", "--link", "echo", "{1}{2}", ":::", "a", "b", ":::", "1", "2"]
    )
    assert code == 0
    assert out.splitlines() == ["a1", "b2"]


def test_stdin_input():
    code, out = run_cli(["-k", "echo", "got", "{}"], stdin_text="x\ny\n")
    assert code == 0
    assert out.splitlines() == ["got x", "got y"]


def test_arg_file(tmp_path):
    f = tmp_path / "args.txt"
    f.write_text("p\nq\n")
    code, out = run_cli(["-k", "echo", "{}", "::::", str(f)])
    assert code == 0
    assert out.splitlines() == ["p", "q"]


def test_dash_a_arg_file(tmp_path):
    f = tmp_path / "args.txt"
    f.write_text("m\nn\n")
    code, out = run_cli(["-k", "-a", str(f), "echo", "{}"])
    assert code == 0
    assert out.splitlines() == ["m", "n"]


def test_exit_code_counts_failures():
    code, _ = run_cli(["exit", "{}", ":::", "0", "1", "1"])
    assert code == 2


def test_dry_run_prints_commands():
    code, out = run_cli(["--dry-run", "-k", "rm", "-rf", "{}", ":::", "x"])
    assert code == 0
    assert out.strip() == "rm -rf x"


def test_tag_prefixes_output():
    code, out = run_cli(["--tag", "-k", "echo", "hello", "# {}", ":::", "T1"])
    assert code == 0
    assert out.splitlines() == ["T1\thello"]


def test_joblog_and_resume(tmp_path):
    log = str(tmp_path / "jl")
    code, _ = run_cli(["--joblog", log, "echo", "{}", ":::", "a", "b"])
    assert code == 0
    assert len(open(log).read().splitlines()) == 3
    # resume skips both
    code, out = run_cli(
        ["--joblog", log, "--resume", "-k", "echo", "{}", ":::", "a", "b"]
    )
    assert code == 0
    assert out == ""


def test_no_command_errors():
    with pytest.raises(SystemExit):
        run_cli([":::", "a"])


def test_bad_halt_spec_reports_error(capsys):
    code, _ = run_cli(["--halt", "bogus", "echo", "{}", ":::", "a"])
    assert code == 255


def test_seq_and_slot_tokens():
    code, out = run_cli(["-j1", "-k", "echo", "{#}/{%}", ":::", "a", "b"])
    assert code == 0
    assert out.splitlines() == ["1/1", "2/1"]


def test_pipe_mode_cli():
    code, out = run_cli(["--pipe", "-N", "2", "wc -l"], stdin_text="1\n2\n3\n4\n5\n")
    assert code == 0
    assert sum(int(x) for x in out.split()) == 5


def test_jobs_percentage_form_cli():
    code, out = run_cli(["-j", "100%", "-k", "echo", "{}", ":::", "a"])
    assert code == 0 and out.strip() == "a"


def test_colsep_cli():
    code, out = run_cli(["--colsep", ",", "-k", "echo", "{2}/{1}", ":::", "a,b"])
    assert code == 0 and out.strip() == "b/a"


def test_max_args_cli():
    code, out = run_cli(["-n", "2", "-k", "echo", "{}", ":::", "a", "b", "c"])
    assert code == 0
    assert out.splitlines() == ["a b", "c"]


def test_quote_cli():
    code, out = run_cli(["-q", "-k", "echo", "{}", ":::", "a;b"])
    assert code == 0 and out.strip() == "a;b"


def test_retry_delay_flag_parses_and_runs():
    code, out = run_cli(["--retries", "2", "--retry-delay", "0.01", "-k",
                         "echo", "{}", ":::", "a", "b"])
    assert code == 0
    assert out.splitlines() == ["a", "b"]


def test_fault_plan_flag_injects_crashes(tmp_path):
    from repro.faults import FaultPlan, FaultSpec

    plan = tmp_path / "plan.json"
    plan.write_text(FaultPlan(by_seq={1: FaultSpec("crash")}).to_json())
    code, out = run_cli(["--fault-plan", str(plan), "--retries", "2", "-k",
                         "echo", "{}", ":::", "a", "b"])
    assert code == 1  # seq 1 crashes every attempt; exit code counts failures
    assert out.splitlines() == ["b"]


def test_fault_plan_inline_json_with_retries_converges(tmp_path):
    from repro.faults import FaultPlan, FaultSpec

    inline = FaultPlan(by_seq={2: FaultSpec("flaky", times=1)}).to_json()
    code, out = run_cli(["--fault-plan", inline, "--retries", "2", "-k",
                         "echo", "{}", ":::", "a", "b", "c"])
    assert code == 0
    assert out.splitlines() == ["a", "b", "c"]


def test_rpc_batch_flag_parses_and_runs():
    code, out = run_cli(
        ["-k", "--rpc-batch", "8", "echo", "{}", ":::", "a", "b", "c"]
    )
    assert code == 0
    assert out.splitlines() == ["a", "b", "c"]


def test_rpc_batch_bad_value_reports_error(capsys):
    code = main(["--rpc-batch", "zero", "echo", "{}", ":::", "a"])
    assert code != 0
