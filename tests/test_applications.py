"""Tests for the Girvan–Newman and top-k tracking applications."""

import pytest

from repro.api import BetweennessConfig, BetweennessSession, TopKTracker
from repro.applications import girvan_newman, modularity
from repro.core import EdgeUpdate
from repro.exceptions import ConfigurationError
from repro.generators import synthetic_social_graph
from repro.graph import Graph


@pytest.fixture
def two_communities():
    """Two dense 4-cliques joined by a single bridge."""
    edges = []
    for base in (0, 4):
        members = range(base, base + 4)
        edges.extend(
            (u, v) for u in members for v in members if u < v
        )
    edges.append((3, 4))
    return Graph.from_edges(edges)


class TestModularity:
    def test_perfect_split_has_positive_modularity(self, two_communities):
        partition = [{0, 1, 2, 3}, {4, 5, 6, 7}]
        assert modularity(two_communities, partition) > 0.3

    def test_single_community_modularity_zero_or_negative(self, two_communities):
        whole = [set(two_communities.vertices())]
        assert modularity(two_communities, whole) <= 1e-9

    def test_empty_graph(self):
        assert modularity(Graph(), []) == 0.0


class TestGirvanNewman:
    def test_bridge_removed_first(self, two_communities):
        result = girvan_newman(two_communities, max_removals=1)
        assert result.removed_edges[0] == (3, 4)
        assert result.num_levels == 1
        assert result.hierarchy.levels[0] == [{0, 1, 2, 3}, {4, 5, 6, 7}] or \
            sorted(map(sorted, result.hierarchy.levels[0])) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_incremental_and_recompute_agree(self, two_communities):
        incremental = girvan_newman(two_communities, max_removals=6, use_incremental=True)
        recompute = girvan_newman(two_communities, max_removals=6, use_incremental=False)
        assert incremental.removed_edges == recompute.removed_edges
        assert len(incremental.hierarchy.levels) == len(recompute.hierarchy.levels)

    def test_target_communities_stops_early(self, two_communities):
        result = girvan_newman(two_communities, target_communities=2)
        assert result.num_levels >= 1
        assert result.edges_processed < two_communities.num_edges

    def test_full_run_removes_all_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        result = girvan_newman(g)
        assert result.edges_processed == 3

    def test_best_partition_maximises_modularity(self, two_communities):
        result = girvan_newman(two_communities, max_removals=8)
        partition, q = result.hierarchy.best_partition(two_communities)
        assert q == pytest.approx(
            modularity(two_communities, partition)
        )
        assert q > 0.3

    def test_input_graph_untouched(self, two_communities):
        before = two_communities.num_edges
        girvan_newman(two_communities, max_removals=3)
        assert two_communities.num_edges == before

    def test_invalid_max_removals(self, two_communities):
        with pytest.raises(ConfigurationError):
            girvan_newman(two_communities, max_removals=-1)

    def test_larger_social_graph_smoke(self):
        g = synthetic_social_graph(60, rng=5)
        result = girvan_newman(g, max_removals=10)
        assert result.edges_processed == 10


class TestDirectedModularity:
    def test_directed_two_communities_value(self):
        # Two directed 2-cycles joined by one arc: m = 5 directed edges.
        g = Graph.from_edges(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], directed=True
        )
        partition = [{0, 1}, {2, 3}]
        # Leicht-Newman: sum_c [m_c/m - d_out_c * d_in_c / m^2]
        # community A: m_c=2, d_out=3 (0->1,1->0,1->2), d_in=2
        # community B: m_c=2, d_out=2, d_in=3
        expected = (2 / 5 - 3 * 2 / 25) + (2 / 5 - 2 * 3 / 25)
        assert modularity(g, partition) == pytest.approx(expected)

    def test_directed_differs_from_symmetrised_formula(self):
        # An orientation-skewed partition: the undirected formula would
        # treat both communities alike; the directed null model must not.
        g = Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 0), (4, 0)], directed=True
        )
        lopsided = modularity(g, [{0, 1}, {2, 3, 4}])
        m = g.num_edges
        # Hand-computed: A has m_c=2, d_out=4, d_in=3; B has m_c=0,
        # d_out=1, d_in=2.
        assert lopsided == pytest.approx((2 / m - 12 / m**2) + (0 - 2 / m**2))

    def test_whole_graph_partition_is_zero_ish(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
        # One community holding everything: m_c/m = 1 and the null term is
        # d_out*d_in/m^2 = m*m/m^2 = 1, so Q = 0 exactly.
        assert modularity(g, [{0, 1, 2}]) == pytest.approx(0.0)

    def test_girvan_newman_runs_on_directed_graph(self):
        # Two weakly-knit directed triangles with a single bridge arc.
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        g = Graph.from_edges(edges, directed=True)
        result = girvan_newman(g, max_removals=3, use_incremental=True)
        baseline = girvan_newman(g, max_removals=3, use_incremental=False)
        # The incremental and recompute drivers must remove the very same
        # arc sequence and discover the same (weak-connectivity) splits.
        assert result.removed_edges == baseline.removed_edges
        assert result.num_levels == baseline.num_levels >= 1


def tracked_session(graph, k, track_edges=True, backend="dicts", store=None):
    """A serial session over ``graph`` with a subscribed :class:`TopKTracker`."""
    config = BetweennessConfig.for_graph(graph, backend=backend)
    session = BetweennessSession(graph, config, store=store)
    tracker = session.subscribe(TopKTracker(k=k, track_edges=track_edges))
    return session, tracker


class TestTopKTracker:
    def test_snapshots_track_updates(self, two_communities):
        session, tracker = tracked_session(two_communities, k=3)
        session.apply(EdgeUpdate.addition(0, 5))
        assert len(tracker.snapshots[-1].top_vertices) == 3
        assert len(tracker.snapshots) == 1

    def test_bridge_endpoints_lead_ranking(self, two_communities):
        _session, tracker = tracked_session(two_communities, k=2)
        top = tracker.top_vertices()
        assert {vertex for vertex, _ in top} == {3, 4}

    def test_ranking_churn_counts_changes(self, two_communities):
        session, tracker = tracked_session(two_communities, k=4)
        session.apply(EdgeUpdate.addition(0, 6))
        session.apply(EdgeUpdate.removal(3, 4))
        churn = tracker.ranking_churn()
        assert len(churn) == 1
        assert churn[0] >= 0

    def test_top_edges_tracked_when_enabled(self, two_communities):
        session, tracker = tracked_session(two_communities, k=2, track_edges=True)
        session.apply(EdgeUpdate.addition(1, 6))
        assert len(tracker.snapshots[-1].top_edges) == 2

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            TopKTracker(k=0)

    def test_heap_ranking_matches_full_sort(self, two_communities):
        """Regression: nlargest-style selection == the old full-sort path."""
        session, tracker = tracked_session(two_communities, k=3)
        stream = [
            EdgeUpdate.addition(0, 6),
            EdgeUpdate.removal(3, 4),
            EdgeUpdate.addition(2, 5),
        ]
        for update in stream:
            session.apply(update)
            snapshot = tracker.snapshots[-1]
            for ranked, scores in (
                (snapshot.top_vertices, session.framework.vertex_betweenness()),
                (snapshot.top_edges, session.framework.edge_betweenness()),
            ):
                full_sort = tuple(
                    sorted(
                        scores.items(), key=lambda item: (-item[1], repr(item[0]))
                    )[: tracker.k]
                )
                assert ranked == full_sort

    def test_backends_give_identical_snapshots(self, two_communities):
        stream = [EdgeUpdate.addition(0, 6), EdgeUpdate.removal(3, 4)]
        snapshots = {}
        for backend in ("dicts", "arrays"):
            session, tracker = tracked_session(two_communities, k=4, backend=backend)
            for update in stream:
                session.apply(update)
            snapshots[backend] = tracker.snapshots
        assert snapshots["dicts"] == snapshots["arrays"]

    def test_store_object_is_used(self, two_communities, tmp_path):
        from repro.storage import DiskBDStore

        store = DiskBDStore(
            two_communities.vertex_list(), path=tmp_path / "topk.bin"
        )
        session, tracker = tracked_session(two_communities, k=2, store=store)
        try:
            assert session.framework.store is store
            _other, reference = tracked_session(two_communities, k=2)
            assert tracker.top_vertices() == reference.top_vertices()
        finally:
            store.close()
