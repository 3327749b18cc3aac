"""Every repo path the root docs name in backticks must exist."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
TOKEN = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(r"(benchmarks|tests|src|examples|\.github)/\S*|[A-Z][\w.-]*\.(json|md)")


def _output_dirs() -> tuple[str, ...]:
    """Git-ignored output directories: docs may name them before a run."""
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    return tuple(line for line in lines if line.endswith("/") and "/" in line[:-1])


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = []
    for token in TOKEN.findall(text):
        path = token.split()[0].split("::")[0]
        if not REPO_PATH.fullmatch(path) or path.startswith(_output_dirs()):
            continue
        found = list(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()
        if not found:
            missing.append(path)
    assert not missing, f"{doc} names paths that do not exist: {missing}"
