"""The benchmark's tracer wraps package functions by module and name.

A renamed or removed function would leave its span or counter reading
0 in a traced run; here it fails instead.  ``perfbench/tracer.py`` is
imported, not changed.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    # The tracer hooks only the package modules already loaded.
    importlib.import_module("origami_census.cli")
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def hooks(tracer) -> list[tuple[str, str]]:
    return [*tracer.SPANS.values(), *(
        hook for targets in tracer.CALL_COUNTERS.values() for hook in targets
    )]


def test_every_hook_resolves(tracer):
    assert hooks(tracer)
    missing = [
        f"{module}.{attr}" for module, attr in hooks(tracer)
        if not callable(
            getattr(importlib.import_module(f"origami_census.{module}"), attr, None)
        )
    ]
    assert missing == []


def test_tracer_installs_every_hook_and_restores_them(tracer):
    from origami_census import census

    original = census._enumerate_alpha_class
    with tracer.Tracer() as t:
        assert census._enumerate_alpha_class is not original
    assert t.missing_hooks == []
    assert census._enumerate_alpha_class is original
