"""Tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest perfbench``.
The traced tests run each workload twice in-process (about a minute).
"""
from __future__ import annotations

import json

import pytest

import tracer
from workloads import ROOT, WORKLOADS, check_output, fresh_cache_dir, prefilled_cache

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNNER_METRICS = {"cli.cache_bytes", "proc.cpu_s", "trace.overhead_s"}


def test_benchmark_declares_exactly_the_measured_metrics():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    measured = {k: unit for k, (unit, _) in tracer.LAYER_METRICS.items()}
    assert set(declared) == set(measured) | RUNNER_METRICS
    for name, unit in measured.items():
        assert declared[name] == unit
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_metric_map_covers_every_layer_metric():
    doc = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in doc["metrics"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["on"]) <= set(WORKLOADS), name


def test_check_output_rejects_wrong_runs():
    w = WORKLOADS["census-cold-d8-mu2"]
    good = b'{"degree": 8, "m": "150/1", "mu": [2], "n": 135}\n'
    assert check_output(w, 0, good, "cache write: x\n") is None
    assert "exit code" in check_output(w, 1, good, "cache write: x\n")
    # A hit where a write is expected means a user cache leaked in.
    assert "cache write" in check_output(w, 0, good, "cache hit: x\n")
    assert "N=134" in check_output(w, 0, good.replace(b"135", b"134"), "cache write: x\n")
    assert "sha256" in check_output(w, 0, good.replace(b" ", b""), "cache write: x\n")


# Exact counts each traced run must reproduce.
PINNED = {
    "census-cold-d8-mu2": {
        "census.alpha_classes": 22,
        "census.betas_tried": 887_040,
        "census.classes": 135,
        "cli.cache_hits": 0,
        "orbits.components": 0,
        "spin.spin_parity_calls": 0,
    },
    "orbits-warm-d8-mu6": {
        "census.alpha_classes": 0,
        "census.betas_tried": 0,
        "census.records_loaded": 9800,
        "cli.cache_hits": 1,
        "orbits.components": 16,
        "spin.spin_parity_calls": 9800,
        "involutions.is_hyperelliptic_calls": 9800,
    },
    "orbits-cold-d8-mu3_1": {
        "census.alpha_classes": 22,
        "census.betas_tried": 887_040,
        "census.classes": 4032,
        "cli.cache_hits": 0,
        "orbits.components": 5,
        "spin.spin_parity_calls": 0,
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    w = WORKLOADS[name]
    cli = tracer.import_package()
    prefill = prefilled_cache(w, timeout=120) if w.prefill else None
    runs = []
    for i in range(2):
        t = tracer.Tracer()
        cache_dir = fresh_cache_dir(prefill, tmp_path, i)
        rc, out, err, *_ = tracer.call_cli(cli, w.cli_args(cache_dir), t)
        assert check_output(w, rc, out, err) is None
        assert t.missing_hooks == []
        metrics = t.layer_metrics()
        metrics["cli.cache_bytes"] = tracer.cache_bytes(cache_dir)
        runs.append(tracer.exact_metrics(metrics))
    assert runs[0] == runs[1]
    for key, value in PINNED[name].items():
        assert runs[0][key] == value, key
