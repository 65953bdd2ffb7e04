"""Directed evolving-graph support across the incremental stack.

These suites pin the directed scenario family the same way PR 3 pinned the
arrays backend: random directed add/remove streams (vertex births and
disconnecting removals included) are replayed through every pipeline and
the results are compared

* **bitwise** (``==`` on floats, never ``pytest.approx``) between the
  ``dicts`` and ``arrays`` backends running the same pipeline — the
  kernel's bit-identity promise extends to directed graphs; and
* against from-scratch directed Brandes (and a brute-force shortest-path
  enumerator) for absolute correctness, under the repo-wide tolerance the
  undirected suites use across *different* pipelines.

A directed store also carries its orientation in the disk header, so the
refusal paths (directed store + undirected graph and vice versa) are
covered here too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import brandes_betweenness
from repro.algorithms.brute_force import brute_force_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.updates import batches
from repro.exceptions import ConfigurationError
from repro.generators import erdos_renyi_digraph
from repro.graph import Graph
from repro.parallel.shards import ShardCoordinator
from repro.parallel.mapreduce import MapReduceBetweenness
from repro.storage import ArrayBDStore, DiskBDStore

from tests.helpers import assert_framework_matches_recompute, assert_scores_equal

MAX_VERTICES = 6

settings.register_profile(
    "repro-directed",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-directed")


@st.composite
def digraph_and_updates(draw):
    """A random digraph plus a valid update script with births and removals.

    Generated against a shadow copy so every addition targets a missing
    arc, every removal an existing one; some additions attach brand-new
    vertices (stream births, in either orientation), and removals may
    disconnect whole regions from some sources — the structural cases of
    Algorithms 4 and 6-10 in their directed form.
    """
    n = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = Graph.from_edges(
        [e for e, keep in zip(possible, mask) if keep],
        directed=True,
        vertices=range(n),
    )

    shadow = graph.copy()
    next_vertex = n
    script = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        choice = draw(st.integers(min_value=0, max_value=3))
        edges = shadow.edge_list()
        if choice == 0 and edges:
            index = draw(st.integers(min_value=0, max_value=len(edges) - 1))
            u, v = edges[index]
            shadow.remove_edge(u, v)
            script.append(EdgeUpdate.removal(u, v))
        elif choice == 1:
            anchor_index = draw(
                st.integers(min_value=0, max_value=shadow.num_vertices - 1)
            )
            anchor = shadow.vertex_list()[anchor_index]
            if draw(st.booleans()):
                u, v = anchor, next_vertex
            else:
                u, v = next_vertex, anchor
            shadow.add_edge(u, v)
            script.append(EdgeUpdate.addition(u, v))
            next_vertex += 1
        else:
            candidates = [
                (u, v)
                for u in shadow.vertex_list()
                for v in shadow.vertex_list()
                if u != v and not shadow.has_edge(u, v)
            ]
            if not candidates:
                continue
            index = draw(st.integers(min_value=0, max_value=len(candidates) - 1))
            u, v = candidates[index]
            shadow.add_edge(u, v)
            script.append(EdgeUpdate.addition(u, v))
    return graph, script


def identical(a: IncrementalBetweenness, b: IncrementalBetweenness) -> None:
    """Bit-for-bit equality of both score mappings (no tolerance)."""
    assert a.vertex_betweenness() == b.vertex_betweenness()
    assert a.edge_betweenness() == b.edge_betweenness()


class TestDirectedStreams:
    """Random directed streams through the serial one-at-a-time pipeline."""

    @given(digraph_and_updates())
    def test_serial_backends_bit_identical_and_match_brandes(self, case):
        graph, script = case
        frameworks = {
            backend: IncrementalBetweenness(graph, backend=backend)
            for backend in ("dicts", "arrays")
        }
        for framework in frameworks.values():
            for update in script:
                framework.apply(update)
        identical(frameworks["dicts"], frameworks["arrays"])
        # Scores and the stored BD records both match a fresh directed run.
        assert_framework_matches_recompute(frameworks["dicts"])
        assert_framework_matches_recompute(frameworks["arrays"])

    @given(digraph_and_updates())
    def test_batched_backends_bit_identical_and_match_brandes(self, case):
        graph, script = case
        frameworks = {
            backend: IncrementalBetweenness(graph, backend=backend)
            for backend in ("dicts", "arrays")
        }
        for framework in frameworks.values():
            for chunk in batches(iter(script), 3):
                framework.apply_updates(chunk)
        identical(frameworks["dicts"], frameworks["arrays"])
        reference = brandes_betweenness(frameworks["dicts"].graph)
        for framework in frameworks.values():
            assert_scores_equal(
                framework.vertex_betweenness(), reference.vertex_scores
            )
            assert_scores_equal(framework.edge_betweenness(), reference.edge_scores)

    @given(digraph_and_updates())
    def test_disk_stores_bit_identical_to_ram(self, case):
        graph, script = case
        ram = IncrementalBetweenness(graph, backend="arrays")
        variants = [ram]
        for use_mmap in (True, False):
            store = DiskBDStore(
                graph.vertex_list(), use_mmap=use_mmap, directed=True
            )
            variants.append(
                IncrementalBetweenness(graph, store=store, backend="arrays")
            )
        try:
            for framework in variants:
                for chunk in batches(iter(script), 4):
                    framework.apply_updates(chunk)
            identical(variants[0], variants[1])
            identical(variants[0], variants[2])
        finally:
            for framework in variants:
                framework.store.close()


class TestDirectedBrandes:
    """Static directed Brandes: dicts vs arrays vs brute force."""

    @given(st.integers(min_value=0, max_value=200))
    def test_backends_bit_identical_on_random_digraphs(self, seed):
        graph = erdos_renyi_digraph(6, 0.35, rng=random.Random(seed))
        scalar = brandes_betweenness(graph)
        vector = brandes_betweenness(graph, backend="arrays")
        assert scalar.vertex_scores == vector.vertex_scores
        assert scalar.edge_scores == vector.edge_scores

    @pytest.mark.parametrize("seed", range(12))
    def test_brute_force_oracle_agrees(self, seed):
        graph = erdos_renyi_digraph(5, 0.4, rng=random.Random(seed))
        expected_vertex, expected_edge = brute_force_betweenness(graph)
        for backend in ("dicts", "arrays"):
            result = brandes_betweenness(graph, backend=backend)
            assert_scores_equal(result.vertex_scores, expected_vertex)
            assert_scores_equal(result.edge_scores, expected_edge)

    def test_oriented_edge_keys(self):
        graph = Graph.from_edges([(0, 1), (1, 2)], directed=True)
        result = brandes_betweenness(graph)
        assert set(result.edge_scores) == {(0, 1), (1, 2)}
        # The path 0 -> 1 -> 2 exists; the reverse does not.
        assert result.vertex_scores[1] == 1.0


class TestDirectedParallel:
    """Worker payloads must rebuild directed partitions."""

    def test_executor_matches_brandes_both_backends(self):
        graph = erdos_renyi_digraph(8, 0.3, rng=random.Random(3))
        for backend in ("dicts", "arrays"):
            with ShardCoordinator(
                graph, num_workers=2, backend=backend
            ) as cluster:
                assert cluster.graph.directed
                cluster.apply_batch(
                    [EdgeUpdate.addition(0, 100), EdgeUpdate.addition(100, 4)]
                )
                cluster.apply_batch([EdgeUpdate.removal(0, 100)])
                vertex_scores, edge_scores = cluster.betweenness()
                reference = brandes_betweenness(cluster.graph)
            assert_scores_equal(vertex_scores, reference.vertex_scores)
            assert_scores_equal(edge_scores, reference.edge_scores)

    def test_mapreduce_matches_brandes(self):
        graph = erdos_renyi_digraph(7, 0.3, rng=random.Random(5))
        cluster = MapReduceBetweenness(graph, num_mappers=3, backend="arrays")
        cluster.add_edge(0, 50)
        cluster.add_edge(50, 3)
        reference = brandes_betweenness(cluster.mappers[0].graph)
        assert_scores_equal(cluster.vertex_betweenness(), reference.vertex_scores)
        assert_scores_equal(cluster.edge_betweenness(), reference.edge_scores)


class TestOrientationPersistence:
    """The disk header's directedness bit and the refusal paths."""

    def test_header_bit_survives_reopen(self, tmp_path):
        graph = erdos_renyi_digraph(5, 0.4, rng=random.Random(1))
        store = DiskBDStore(
            graph.vertex_list(), path=tmp_path / "bd.bin", directed=True
        )
        framework = IncrementalBetweenness(graph, store=store, backend="arrays")
        framework.store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert reopened.directed is True
        reopened.close()

    def test_directed_store_refused_for_undirected_graph(self, tmp_path):
        digraph = erdos_renyi_digraph(5, 0.4, rng=random.Random(2))
        store = DiskBDStore(
            digraph.vertex_list(), path=tmp_path / "bd.bin", directed=True
        )
        framework = IncrementalBetweenness(digraph, store=store)
        framework.store.close()
        undirected = Graph.from_edges(
            digraph.edge_list(), vertices=digraph.vertex_list()
        )
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        try:
            with pytest.raises(ConfigurationError):
                IncrementalBetweenness.from_store(undirected, reopened)
        finally:
            reopened.close()

    def test_undirected_store_refused_for_directed_graph(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        store = DiskBDStore(graph.vertex_list(), path=tmp_path / "bd.bin")
        framework = IncrementalBetweenness(graph, store=store)
        framework.store.close()
        digraph = Graph.from_edges(graph.edge_list(), directed=True)
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        try:
            with pytest.raises(ConfigurationError):
                IncrementalBetweenness.from_store(digraph, reopened)
        finally:
            reopened.close()

    def test_array_store_orientation_checked(self):
        digraph = Graph.from_edges([(0, 1)], directed=True)
        store = ArrayBDStore(digraph.vertex_list(), directed=False)
        with pytest.raises(ConfigurationError):
            IncrementalBetweenness(digraph, store=store, backend="arrays")

    def test_checkpoint_resume_round_trip(self, tmp_path):
        graph = erdos_renyi_digraph(6, 0.35, rng=random.Random(9))
        store = DiskBDStore(
            graph.vertex_list(), path=tmp_path / "bd.bin", directed=True
        )
        framework = IncrementalBetweenness(graph, store=store, backend="arrays")
        framework.add_edge(0, 77)
        framework.remove_edge(0, 77)
        sidecar = framework.checkpoint(tmp_path / "ck.bin")
        expected_vertex = framework.vertex_betweenness()
        expected_edge = framework.edge_betweenness()
        framework.store.close()
        resumed = IncrementalBetweenness.resume(sidecar, backend="arrays")
        try:
            assert resumed.graph.directed is True
            assert resumed.vertex_betweenness() == expected_vertex
            assert resumed.edge_betweenness() == expected_edge
            # The resumed instance keeps evolving correctly.
            resumed.add_edge(1, 88)
            assert_framework_matches_recompute(resumed)
        finally:
            resumed.store.close()
