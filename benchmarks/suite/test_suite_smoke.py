"""Smoke test of the benchmark itself, at a tiny size (tier-1, a few seconds).

Every workload runs once with the tracer installed — which exercises
everything an untraced run does except the server child process, so
``service-mixed`` also runs once untraced.  Tiny-size numbers are only
checked for presence, never recorded.
"""

import dataclasses
import multiprocessing
import re

import pytest

from repro.core.kernel import brandes_betweenness_arrays
from repro.generators import synthetic_social_graph
from repro.storage.buffers import active_segments

from benchmarks.suite import compare, metrics, tracing, workloads

SPEC = metrics.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny(name):
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload, vertices=48, warmup=1, timed=8, online=4 if workload.online else 0
    )


def assert_nothing_left_behind(segments_before, children):
    assert workloads.stop_children(children) == []  # none had to be killed
    assert not multiprocessing.active_children()
    assert set(active_segments()) == segments_before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_emits_every_metric(name, tmp_path):
    segments = set(active_segments())
    recorder = tracing.Recorder()
    tracing.install(recorder)
    children = {}
    try:
        measured = workloads.run_workload(tiny(name), 7, tmp_path, children, recorder)
    finally:
        recorder.uninstall()
    assert_nothing_left_behind(segments, children)
    assert len(children) == (2 * workloads.SETUPS if name == "shard-2" else 0)
    assert measured.failed == 0 and measured.attempted > 0

    for spec, emitted in (
        (SPEC["end_to_end"], metrics.end_to_end(measured)),
        (SPEC["per_layer"], metrics.per_layer(recorder, measured)),
    ):
        assert [m["name"] for m in spec] == list(emitted)
        for metric in spec:
            value, unit = emitted[metric["name"]]
            assert NAME.fullmatch(metric["name"])
            assert unit == metric["unit"]
            assert value >= 0
    assert all(value > 0 for value, _ in metrics.end_to_end(measured).values())

    layers = {layer for layer, _, _ in metrics.layer_table(recorder, measured.notes)}
    assert "api" in layers
    assert ("client" in layers) == (name == "service-mixed")
    assert ("parallel" in layers) == (name == "shard-2")
    assert recorder.chrome_trace()["traceEvents"]


def test_service_child_process_untraced(tmp_path):
    segments = set(active_segments())
    children = {}
    measured = workloads.run_workload(tiny("service-mixed"), 11, tmp_path, children)
    assert_nothing_left_behind(segments, children)
    assert len(children) == 1  # the `repro serve` child
    assert measured.failed == 0
    also = metrics.suite_only(measured)
    gated = {gate.metric for gate in compare.GATES}
    assert gated == set(also) | {m["name"] for m in SPEC["end_to_end"]}
    assert all(NAME.fullmatch(name) for name in also)
    assert also["online_missed_ratio"][1] == "ratio"
    assert not measured.notes.get("timed_window")  # no tracer, no boundary notes


def test_corrupted_score_trips_the_gate():
    graph = synthetic_social_graph(48, rng=3)
    oracle = brandes_betweenness_arrays(graph)
    workloads.check_scores(oracle.vertex_scores, oracle.edge_scores, graph)
    corrupted = dict(oracle.vertex_scores)
    vertex = max(corrupted, key=corrupted.get)
    corrupted[vertex] *= 1 + 1e-6
    with pytest.raises(workloads.GateFailure):
        workloads.check_scores(corrupted, oracle.edge_scores, graph)
    with pytest.raises(workloads.GateFailure):
        missing = dict(oracle.edge_scores)
        missing.popitem()
        workloads.check_scores(oracle.vertex_scores, missing, graph)


def test_compare_flags_a_regression_beyond_the_bound():
    assert list(workloads.WORKLOADS) == list(compare.EVERY)

    def report(worse_by=lambda gate: 0.0, scales=(1.0,)):
        """Every gated metric at 100, moved ``worse_by(gate)`` the wrong way."""
        runs = {w: [{} for _ in scales] for w in compare.EVERY}
        for gate in compare.GATES:
            sign = -1 if gate.metric in compare.HIGHER else 1
            for workload in gate.workloads:
                for scale, run in zip(scales, runs[workload]):
                    run[gate.metric] = {"value": (100.0 + sign * worse_by(gate)) * scale}
        return {"workloads": {w: {"runs": [{"metrics": m} for m in r]} for w, r in runs.items()}}

    def verdicts(a, b):
        return {row[-1] for row in compare.compare(a, b)}

    base = report()
    assert len(compare.compare(base, base)) == sum(len(g.workloads) for g in compare.GATES)
    assert verdicts(base, base) == {"same"}
    assert verdicts(base, report(lambda gate: 25.0)) == {"worse"}  # a quarter worse

    def twice_the_bound(gate):
        return 2 * gate.bound * (1 if gate.absolute else 100) or 1e-9

    assert verdicts(base, report(twice_the_bound)) == {"worse"}
    assert verdicts(report(twice_the_bound), base) == {"better"}

    noisy = report(scales=(0.5, 1.0, 1.5, 2.0))
    assert verdicts(base, noisy) == {"unresolved"}
    del noisy["workloads"]["shard-2"]["runs"][:]
    assert "missing" in verdicts(base, noisy)
