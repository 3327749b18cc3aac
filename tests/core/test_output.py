"""Output sequencing (--keep-order) and tagging (--tag)."""

from repro.core.job import JobResult, JobState
from repro.core.options import Options
from repro.core.output import OutputSequencer, format_output


def result(seq, stdout="", args=("x",), slot=1):
    return JobResult(
        seq=seq, args=args, command="c", exit_code=0, stdout=stdout,
        start_time=0, end_time=1, slot=slot, state=JobState.SUCCEEDED,
    )


def collect():
    out = []
    return out, lambda r, text: out.append((r.seq, text))


def test_unordered_emits_immediately():
    out, emit = collect()
    seq = OutputSequencer(emit, Options(keep_order=False))
    seq.push(result(3, "three\n"))
    seq.push(result(1, "one\n"))
    assert [s for s, _ in out] == [3, 1]


def test_keep_order_holds_until_contiguous():
    out, emit = collect()
    seq = OutputSequencer(emit, Options(keep_order=True))
    seq.push(result(2, "two\n"))
    assert out == []
    assert seq.pending == 1
    seq.push(result(1, "one\n"))
    assert [s for s, _ in out] == [1, 2]
    assert seq.pending == 0


def test_keep_order_long_scramble():
    out, emit = collect()
    seq = OutputSequencer(emit, Options(keep_order=True))
    for s in [5, 3, 1, 4, 2, 7, 6]:
        seq.push(result(s))
    assert [s for s, _ in out] == [1, 2, 3, 4, 5, 6, 7]


def test_keep_order_with_skipped_seqs():
    out, emit = collect()
    seq = OutputSequencer(emit, Options(keep_order=True))
    seq.push(result(3))
    seq.skip(1)
    seq.skip(2)
    assert [s for s, _ in out] == [3]


def test_skip_after_later_push():
    out, emit = collect()
    seq = OutputSequencer(emit, Options(keep_order=True))
    seq.push(result(2))
    assert out == []
    seq.skip(1)
    assert [s for s, _ in out] == [2]


def test_format_plain_passthrough():
    assert format_output(result(1, "hello\n"), Options()) == "hello\n"


def test_format_tag_prefixes_every_line():
    opts = Options(tag=True)
    text = format_output(result(1, "l1\nl2\n", args=("inputA",)), opts)
    assert text == "inputA\tl1\ninputA\tl2\n"


def test_format_tag_multi_args_tab_joined():
    opts = Options(tag=True)
    text = format_output(result(1, "x\n", args=("a", "b")), opts)
    assert text == "a\tb\tx\n"


def test_format_tagstring_template():
    opts = Options(tagstring="job{#}")
    text = format_output(result(4, "out\n"), opts)
    assert text == "job4\tout\n"


def test_format_tagstring_with_input_token():
    opts = Options(tagstring="<{}>")
    text = format_output(result(1, "out\n", args=("f.txt",)), opts)
    assert text == "<f.txt>\tout\n"


def test_format_tag_empty_output():
    assert format_output(result(1, ""), Options(tag=True)) == ""


def test_format_tag_breaks_lines_at_newline_only():
    # GNU Parallel tags at "\n" only; str.splitlines would also split at
    # these and put a tag in the middle of the line.
    opts = Options(tag=True)
    for inner in ("\f", "\v", "\x1c", "\x85",
                  "\N{LINE SEPARATOR}", "\N{PARAGRAPH SEPARATOR}", "\r"):
        text = format_output(result(1, f"a{inner}b\n", args=("t",)), opts)
        assert text == f"t\ta{inner}b\n"


def test_format_tag_line_shapes():
    opts = Options(tag=True)
    cases = {
        "\n": "t\t\n",
        "a": "t\ta",
        "a\nb": "t\ta\nt\tb",
        "a\n\nb\n": "t\ta\nt\t\nt\tb\n",
        "\n\n": "t\t\nt\t\n",
    }
    for stdout, expected in cases.items():
        assert format_output(result(1, stdout, args=("t",)), opts) == expected
