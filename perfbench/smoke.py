"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

Kept out of the package's own test suite (the file name does not match
pytest's default pattern), so they run only when named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread variables and the import path)
import tracing  # noqa: E402
from substream import (bench, constraints, core, counterexamples,  # noqa: E402
                       offline, streaming)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_one(workload, seed=7, seconds=0.1, trace=False,
                         scale="tiny", quiet=True)
    assert _units(result) == END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CELLS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.npz"
    result = run.run_one(workload, seed=7, seconds=0.1, trace=True,
                         scale="tiny", spans_path=spans, quiet=True)
    assert _units(result) == PER_LAYER
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # self times of the spans inside cells add up to at most the traced
    # time of those cells
    assert 0 < m["trace.self_sum_s"] <= m["trace.traced_run_s"] + 1e-9
    data = np.load(spans)
    idx = np.arange(len(data["parent"]))
    assert len(idx) == m["trace.spans"]
    assert np.all(data["parent"] < idx)
    assert np.all(data["end"] >= data["start"])
    assert tracing.patched_names() == []


def test_infeasible_solution_counts_as_failed(monkeypatch):
    real = bench.run_algorithm

    def everything(name, sys, f, stream, options):
        solution, peak = real(name, sys, f, stream, options)
        if name == "streaming_greedy":
            return core.ElementSet(stream), peak
        return solution, peak

    monkeypatch.setattr(bench, "run_algorithm", everything)
    result = run.run_one("graph-nis", seed=7, seconds=0.1, trace=False,
                         scale="tiny", quiet=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_counterexample_that_does_not_hold_counts_as_failed(monkeypatch):
    real = counterexamples.verify_ratio_swap_counterexample

    def broken(rho):
        report = real(rho)
        report.holds = False
        return report

    monkeypatch.setattr(counterexamples, "verify_ratio_swap_counterexample",
                        broken)
    result = run.run_one("swap-adversarial", seed=7, seconds=0.1, trace=False,
                         scale="tiny", quiet=True)
    assert result["failed"] > 0 and not result["correct"]


def test_uninstall_restores_every_original():
    watched = [(core.Objective, "value"), (core.Objective, "__call__"),
               (core.Objective, "marginal"),
               (constraints.IndependenceSystem, "can_add"),
               (constraints, "planarity_check"),
               (streaming.StreamingComponent, "push"),
               (streaming.AutoThresholdSieve, "stored_count"),
               (streaming.AdaptiveSieve, "__init__"),
               (streaming, "cascade_run"), (bench, "cascade_run"),
               (offline, "repeated_greedy"), (bench, "repeated_greedy"),
               (bench, "unweighted_greedy"), (bench, "build_cell"),
               (counterexamples, "build_g2")]
    before = [getattr(owner, attr) for owner, attr in watched]
    installed = tracing.install(tracing.Tracer())
    try:
        live = tracing.patched_names()
        assert "Objective.__call__" in live
        assert "substream.bench.repeated_greedy" in live
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(watched, before))
    finally:
        tracing.uninstall(installed)
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(watched, before))
    assert tracing.patched_names() == []


def test_untraced_timing_refuses_installed_wrappers(tmp_path):
    bench_run = run.Run("graph-nis", 7, 0.1, "tiny", tmp_path)
    bench_run.setup(repeats=False)
    installed = tracing.install(tracing.Tracer())
    try:
        with pytest.raises(RuntimeError, match="still installed"):
            bench_run.timed_passes(1, 0, since=0.0)
    finally:
        tracing.uninstall(installed)
