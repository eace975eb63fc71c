"""Every import in the package and its tests is used: an import that
nothing reads fails here instead of waiting for a manual sweep.
``__init__.py`` re-exports and ``from __future__`` are exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "origami_census"
SOURCES = sorted(
    p
    for p in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_sources_found():
    assert PACKAGE / "cli.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


def test_detects_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from a.b import c as d, e\n"
        "import x.y\n"
        "print(json, e)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "d"), (4, "x")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.name} imports but never uses {unused}"
