"""Code size is a committed number.

The line counts below (``wc -l`` over the ``.py`` files) and the length
of the longest function in ``repro.core`` are pinned at their current
values.  A change that grows one raises its pin in the same diff and
gives the reason in CHANGES.md; a change that shrinks one lowers it, so
the pins only move where review can see them.

Targets, reached by deleting paths rather than by reformatting:

* ``repro.core`` ≤ 5,000 lines;
* ``repro.core.backends`` ≤ 1,400 lines;
* no function in ``repro.core`` longer than ~120 lines.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = ROOT / "src" / "repro" / "core"

LINES = {
    "src": 17156,
    "src/repro/core": 6618,
    "src/repro/core/backends": 2878,
    "src/repro/core/scheduler.py": 901,
}
#: (file under ``repro.core``, function, lines from ``def`` to its end).
LONGEST_FUNCTION = ("cli.py", "build_arg_parser", 136)


def _lines(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(f.read_bytes().count(b"\n") for f in files)


def _functions():
    for path in sorted(CORE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                yield str(path.relative_to(CORE)), node.name, length


def test_line_counts_match_their_pins():
    counts = {name: _lines(ROOT / name) for name in LINES}
    assert counts == LINES, (
        "a pinned line count moved: set its pin to the new value and, if it "
        "grew, say why in CHANGES.md"
    )


def test_longest_core_function_matches_its_pin():
    longest = max(_functions(), key=lambda row: row[2])
    assert longest == LONGEST_FUNCTION
