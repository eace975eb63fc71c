"""The benchmark's pinned answers, checked in-process.

Each workload of ``perfbench/workloads.py`` pins N, M, the component
count and the sha256 of stdout for its CLI run; a run that misses one
is a failed benchmark run.  Here each workload runs through
``cli.main`` on a temporary cache, and the benchmark's own
``check_output`` judges it.  ``perfbench/workloads.py`` is imported,
not changed.
"""
import importlib
import sys
from pathlib import Path

import pytest

from origami_census import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "name",
    ["census-cold-d8-mu2", "orbits-warm-d8-mu6", "orbits-cold-d8-mu3_1"],
)
def test_workload_output_matches_its_pins(
    workloads, capsysbinary, tmp_path, name
):
    w = workloads.WORKLOADS[name]
    if w.prefill is not None:
        # The warm workload's cache, filled as the benchmark fills it
        # but in this test's own directory.
        cache = ["--cache-dir", str(tmp_path)]
        assert cli.main([*w.prefill, *workloads.COMMON_FLAGS, *cache]) == 0
        capsysbinary.readouterr()
    rc = cli.main(w.cli_args(tmp_path))
    out, err = capsysbinary.readouterr()
    assert workloads.check_output(w, rc, out, err.decode()) is None
