"""Unit tests for the dynamic graph substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph import Graph


class TestVertexOperations:
    def test_add_vertex_returns_true_when_new(self):
        g = Graph()
        assert g.add_vertex("a") is True
        assert g.add_vertex("a") is False
        assert g.num_vertices == 1

    def test_contains_and_has_vertex(self):
        g = Graph()
        g.add_vertex(1)
        assert 1 in g
        assert g.has_vertex(1)
        assert 2 not in g

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        g.remove_vertex(1)
        assert not g.has_vertex(1)
        assert g.num_edges == 1
        assert g.has_edge(0, 2)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(42)

    def test_len_counts_vertices(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert len(g) == 4


class TestEdgeOperations:
    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("x", "y")
        assert g.has_vertex("x") and g.has_vertex("y")
        assert g.has_edge("x", "y")
        assert g.has_edge("y", "x")  # undirected

    def test_add_duplicate_edge_raises(self):
        g = Graph()
        g.add_edge(1, 2)
        with pytest.raises(EdgeExistsError):
            g.add_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(SelfLoopError):
            g.add_edge(3, 3)

    def test_remove_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1)
        assert g.has_vertex(0)  # endpoint kept
        assert g.num_edges == 1

    def test_remove_missing_edge_raises(self):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(2)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_remove_edge_missing_vertex_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(VertexNotFoundError):
            g.remove_edge(0, 99)

    def test_edges_yield_each_undirected_edge_once(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert g.num_edges == 3

    def test_degree(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1


class TestDirectedGraph:
    def test_directed_edges_are_one_way(self):
        g = Graph(directed=True)
        g.add_edge("a", "b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_out_and_in_neighbors_differ(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        assert set(g.out_neighbors(1)) == {2}
        assert set(g.in_neighbors(2)) == {1, 3}
        assert set(g.out_neighbors(2)) == set()

    def test_directed_num_edges(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.num_edges == 2

    def test_remove_vertex_directed(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 1)
        g.remove_vertex(1)
        assert g.num_edges == 0
        assert set(g.vertices()) == {2, 3}

    def test_undirected_in_neighbors_equal_out(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert g.in_neighbors(2) == g.out_neighbors(2) == {1, 3}


class TestConstructorsAndCopies:
    def test_from_edges_ignores_duplicates_and_self_loops(self):
        g = Graph.from_edges([(0, 1), (1, 0), (2, 2), (1, 2)])
        assert g.num_edges == 2
        assert not g.has_vertex(2) or g.has_edge(1, 2)

    def test_from_edges_with_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2, 3])
        assert g.num_vertices == 4
        assert g.degree(3) == 0

    def test_copy_is_independent(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        clone = g.copy()
        clone.add_edge(0, 2)
        assert not g.has_edge(0, 2)
        assert clone.has_edge(0, 2)

    def test_subgraph_induced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.subgraph([0, 1, 2])
        assert set(sub.vertices()) == {0, 1, 2}
        assert sub.num_edges == 2

    def test_subgraph_unknown_vertex_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(VertexNotFoundError):
            g.subgraph([0, 7])

    def test_vertex_and_edge_lists(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert set(g.vertex_list()) == {0, 1, 2}
        assert len(g.edge_list()) == 2

    def test_neighbors_of_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.neighbors(0)


class TestEdgeCounter:
    """``num_edges`` is a counter kept by every method that changes
    adjacency; after any mix of them it must equal a recount."""

    @given(
        directed=st.booleans(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["add", "remove", "remove_vertex", "roll", "copy", "payload"]
                ),
                st.integers(0, 7),
                st.integers(0, 7),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_num_edges_equals_a_recount(self, directed, ops):
        g = Graph(directed=directed)
        for op, u, v in ops:
            if op == "add" and u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
            elif op == "remove" and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif op == "remove_vertex" and g.has_vertex(u):
                g.remove_vertex(u)
            elif op == "roll" and u != v:
                # Batch replay's use: snapshot both endpoints, toggle the
                # edge (possibly creating a vertex), rewind.
                snapshot = g.adjacency_snapshot([u, v])
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    g.add_edge(u, v)
                assert g.num_edges == len(g.edge_list())
                g.restore_adjacency(snapshot)
            elif op == "copy":
                g = g.copy()
            elif op == "payload":
                g = Graph.from_adjacency_payload(
                    g.adjacency_payload(), directed=directed
                )
            assert g.num_edges == len(g.edge_list())
