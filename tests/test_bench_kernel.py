"""Smoke tests for ``benchmarks/bench_kernel.py``'s per-phase reporting.

The benchmark drives acceptance (speedup floors asserted in CI), so this
suite only pins its *report shape* on a tiny configuration: every phase
key the kernel reports must be present, non-negative, and together
account for (approximately) the whole measured sweep — the contract the
cross-PR performance trajectory in ``BENCH_kernel.json`` relies on.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "bench_kernel", REPO_ROOT / "benchmarks" / "bench_kernel.py"
)
bench_kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_kernel)

TINY = {
    "vertices": 60,
    "directed_vertices": 40,
    "extra_edges_per_vertex": 2,
    "updates": 8,
    "batch_size": 4,
}


@pytest.fixture(scope="module")
def tiny_report():
    graph = bench_kernel.build_graph(
        TINY["vertices"], TINY["extra_edges_per_vertex"], seed=11
    )
    stream = bench_kernel.build_stream(graph, TINY["updates"], seed=13)
    return bench_kernel.bench_orientation(graph, stream, TINY["batch_size"])


def test_phase_keys_present_and_nonnegative(tiny_report):
    phases = tiny_report["batched_updates_memory"]["phases_seconds"]
    assert set(phases) == set(bench_kernel.PHASE_KEYS) | {"other"}
    assert all(value >= 0.0 for value in phases.values())
    # The cohort sweep always classifies, repairs, and accumulates.
    assert phases["classify"] > 0.0
    assert phases["repair"] > 0.0
    assert phases["accumulate"] > 0.0


def test_phases_sum_to_measured_sweep(tiny_report):
    sweep = tiny_report["batched_updates_memory"]
    total = sweep["arrays_seconds"]
    accounted = sum(sweep["phases_seconds"].values())
    # "other" is defined as the non-negative remainder, so the sum can only
    # exceed the wall total through clock skew between nested timers.
    assert accounted == pytest.approx(total, rel=0.05, abs=1e-4)


def test_report_is_bit_identical(tiny_report):
    assert tiny_report["bootstrap"]["bit_identical"] is True
    assert tiny_report["batched_updates_memory"]["bit_identical"] is True
