"""Every top-level function and class in the package has a reader: a
definition that nothing refers to fails here instead of waiting for a
manual sweep.

A definition is referenced when a package module names it (an AST
``Name`` or ``Attribute``), ``tests/test_acceptance.py`` imports it,
README's Library block shows it, or ``perfbench/tracer.py`` hooks it
in ``SPANS`` or ``CALL_COUNTERS``.  The tracer is read, not imported.
The few definitions kept without a reader are in ``KEEP``, each with
its reason.
"""
import ast
from pathlib import Path

import pytest

from test_readme_library import library_snippet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "origami_census"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

KEEP = {
    "l_from_s_kappa": "the paper's relation L = 12 kappa / (12 - s) in closed form",
    "conjugate": "the exported Perm operation beside compose and commutator",
}


def top_level_defs(source: str) -> list[str]:
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def names_read(source: str, imports: bool = True) -> set[str]:
    """Every name a source reads as a variable or an attribute and,
    with ``imports``, every name it imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced(sources: dict[str, str], readers: set[str]) -> list[str]:
    """``module.name`` of each top-level definition that no source in
    ``sources`` reads and that is not in ``readers``.  An import is not
    a read, so package re-exports do not count."""
    read = set(readers)
    for source in sources.values():
        read |= names_read(source, imports=False)
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for name in top_level_defs(source)
        if name not in read
    ]


def acceptance_imports() -> set[str]:
    return names_read((ROOT / "tests" / "test_acceptance.py").read_text())


def readme_library_names() -> set[str]:
    return names_read(library_snippet())


def tracer_hooks() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "CALL_COUNTERS")
    }
    hooks = [*tables["SPANS"].values()]
    hooks += [hook for targets in tables["CALL_COUNTERS"].values() for hook in targets]
    return {attr for _, attr in hooks}


def package_sources() -> dict[str, str]:
    # __init__ and __main__ read names too; they define none of their own.
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def external_readers() -> set[str]:
    return readme_library_names() | acceptance_imports() | tracer_hooks()


def test_sources_found():
    assert PACKAGE / "cli.py" in MODULES
    assert {"decompose", "make_origami", "spin_parity"} <= readme_library_names()
    assert {"brute_force_census", "commutator"} <= acceptance_imports()
    assert {"get_census", "compose", "act_h_alpha"} <= tracer_hooks()


def test_detects_unreferenced_def():
    sources = {
        "a": "import b\ndef used(): pass\ndef unused(): pass\nclass K: pass\n",
        "b": "from .a import used, unused\nused()\nx = b.K\n",
    }
    assert unreferenced(sources, set()) == ["a.unused"]
    assert unreferenced(sources, {"unused"}) == []


def test_keep_holds_only_unreferenced_defs():
    # A kept name that gains a reader leaves KEEP.
    left = unreferenced(package_sources(), external_readers())
    assert {name.split(".")[1] for name in left} >= set(KEEP)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unreferenced_defs(path):
    missing = [
        name for name in unreferenced(package_sources(), external_readers() | set(KEEP))
        if name.split(".")[0] == path.stem
    ]
    assert missing == [], f"nothing reads {missing}"
