"""Invariant checks in the package must survive ``python -O``, which
strips ``assert`` statements: the package raises instead."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "origami_census"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert PACKAGE / "spin.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name} uses assert at lines {lines}"
