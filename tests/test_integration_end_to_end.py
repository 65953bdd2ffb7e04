"""End-to-end integration tests chaining the major subsystems together.

These mimic what the benchmark harness and the examples do, at a very small
scale, so that a regression anywhere in the pipeline (generators -> core ->
storage -> parallel -> applications -> analysis) is caught by the unit-test
run as well.
"""

import pytest

from repro.algorithms import brandes_betweenness
from repro.analysis import Variant, compare_rankings, measure_stream_speedups
from repro.api import BetweennessConfig, BetweennessSession, TopKTracker
from repro.applications import girvan_newman
from repro.core import IncrementalBetweenness
from repro.generators import (
    addition_stream,
    load_dataset,
    removal_stream,
    synthetic_social_graph,
)
from repro.generators.streams import EvolvingGraph
from repro.parallel import simulate_online_updates
from repro.storage import DiskBDStore

from tests.helpers import assert_framework_matches_recompute


@pytest.fixture(scope="module")
def social_graph():
    return synthetic_social_graph(70, rng=17)


class TestFullPipelines:
    def test_dataset_to_speedup_measurement(self):
        graph = load_dataset("wikielections", num_vertices=70, rng=2)
        updates = addition_stream(graph, 3, rng=3) + removal_stream(graph, 3, rng=4)
        series = measure_stream_speedups(graph, updates, Variant.MO, label="wiki")
        assert len(series.speedups) == 6
        assert series.summary().minimum > 0

    def test_disk_backed_framework_survives_long_mixed_stream(self, social_graph, tmp_path):
        store = DiskBDStore(social_graph.vertex_list(), path=tmp_path / "bd.bin")
        framework = IncrementalBetweenness(social_graph, store=store)
        stream = addition_stream(social_graph, 4, rng=5) + removal_stream(
            social_graph, 4, rng=6
        )
        framework.process_stream(stream)
        assert_framework_matches_recompute(framework)
        store.close()

    def test_online_replay_then_community_detection(self, social_graph):
        evolving = EvolvingGraph.from_graph(social_graph, rng=8)
        prefix = evolving.num_edges - 5
        base = evolving.base_graph(prefix)
        replay = simulate_online_updates(
            base, evolving.future_updates(prefix), num_mappers=2
        )
        assert replay.num_updates == 5
        result = girvan_newman(evolving.base_graph(), max_removals=5)
        assert result.edges_processed == 5

    def test_tracker_ranking_matches_recomputed_ranking(self, social_graph):
        session = BetweennessSession(
            social_graph, BetweennessConfig.for_graph(social_graph)
        )
        tracker = session.subscribe(TopKTracker(k=5))
        for update in addition_stream(social_graph, 3, rng=9):
            session.apply(update)
        snapshot = tracker.snapshots[-1]
        reference = brandes_betweenness(session.graph).vertex_scores
        expected_top = sorted(reference.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:5]
        assert snapshot.vertex_ranking() == tuple(v for v, _ in expected_top)

    def test_incremental_scores_correlate_perfectly_with_recompute(self, social_graph):
        framework = IncrementalBetweenness(social_graph)
        for update in addition_stream(social_graph, 4, rng=10):
            framework.apply(update)
        reference = brandes_betweenness(framework.graph).vertex_scores
        comparison = compare_rankings(framework.vertex_betweenness(), reference, k=10)
        assert comparison.spearman == pytest.approx(1.0)
        assert comparison.top_k_overlap == pytest.approx(1.0)
        assert comparison.mean_absolute_error < 1e-6
