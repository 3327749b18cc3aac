"""Property-based tests for ``--tag`` line prefixing."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.output import _tag_lines

# ASCII-only text (the bytes path) with line ends and carriage returns,
# and text with characters outside ASCII mixed in (the str path),
# including ones str.splitlines would break at.
_ascii = st.sampled_from(["a", "Z", "0", " ", "\t", "\n", "\n", "\r", "\r\n"])
_any = st.one_of(
    _ascii,
    st.sampled_from(["é", "\x85", "\u2028", "\x0c", "字", "\U0001f600"]),
    st.characters(blacklist_categories=("Cs",)),
)


def _joined(chars, min_size):
    return st.lists(chars, min_size=min_size, max_size=40).map("".join)


texts = st.one_of(_joined(_ascii, 1), _joined(_any, 1))
tags = st.one_of(_joined(_ascii.filter(lambda c: "\n" not in c), 0),
                 _joined(_any.filter(lambda c: "\n" not in c), 0))


def _by_line(text: str, tag: str) -> str:
    """The tagged text, one ``"\\n"``-ended line at a time."""
    parts = text.split("\n")
    lines = [p + "\n" for p in parts[:-1]] + ([parts[-1]] if parts[-1] else [])
    return "".join(f"{tag}\t{line}" for line in lines)


@given(texts, tags)
def test_tagging_prefixes_every_line(text, tag):
    assert _tag_lines(text, tag) == _by_line(text, tag)


@given(texts, tags)
def test_bytes_path_agrees_with_the_str_path(text, tag):
    # ASCII text under an ASCII tag takes the bytes path; the str path's
    # formula, applied to any text, must give the same result.
    head = tag + "\t"
    by_str = head + text.replace("\n", "\n" + head)
    if text.endswith("\n"):
        by_str = by_str[: -len(head)]
    assert _tag_lines(text, tag) == by_str
