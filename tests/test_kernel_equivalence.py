"""Bit-identity of the array kernel against the dict backend.

The ``arrays`` backend of :class:`IncrementalBetweenness` promises *exact*
(bit-for-bit) equality with the classic ``dicts`` backend — not approximate
agreement.  These tests exercise that promise with hypothesis-generated
random graphs and random valid update scripts (including vertex births and
disconnecting removals), on both the in-RAM column store and the mmap /
buffered disk stores, plus the standalone vectorized Brandes and the CSR
mirror's ordering contract.

Equality below is always ``==`` on floats, never ``pytest.approx``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import brandes_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.kernel import brandes_betweenness_arrays
from repro.exceptions import ConfigurationError
from repro.graph import CSRGraph, Graph
from repro.storage import ArrayBDStore, DiskBDStore, VertexIndex

MAX_VERTICES = 8

settings.register_profile(
    "repro-kernel",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-kernel")


@st.composite
def graph_and_updates(draw):
    """A random graph plus a valid update script with births and removals.

    Generated against a shadow copy so every addition targets a non-edge,
    every removal an existing edge; some additions attach brand-new
    vertices (stream births), and removals may disconnect components.
    """
    n = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = Graph.from_edges(
        [e for e, keep in zip(possible, mask) if keep], vertices=range(n)
    )

    shadow = graph.copy()
    next_vertex = n
    script = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        choice = draw(st.integers(min_value=0, max_value=3))
        edges = shadow.edge_list()
        if choice == 0 and edges:  # removal (may disconnect)
            u, v = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
            script.append(EdgeUpdate.removal(u, v))
            shadow.remove_edge(u, v)
        elif choice == 1:  # vertex birth
            verts = shadow.vertex_list()
            u = verts[draw(st.integers(min_value=0, max_value=len(verts) - 1))]
            script.append(EdgeUpdate.addition(u, next_vertex))
            shadow.add_edge(u, next_vertex)
            next_vertex += 1
        else:  # internal addition
            verts = shadow.vertex_list()
            non_edges = [
                (u, v)
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
                if not shadow.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = non_edges[
                draw(st.integers(min_value=0, max_value=len(non_edges) - 1))
            ]
            script.append(EdgeUpdate.addition(u, v))
            shadow.add_edge(u, v)
    return graph, script


def assert_bit_identical(arrays_framework, dicts_framework, context=""):
    """Exact dict equality of both score mappings (floats compared with ==)."""
    va = arrays_framework.vertex_betweenness()
    vd = dicts_framework.vertex_betweenness()
    assert va == vd, f"{context}: vertex scores diverge: " + repr(
        {k: (va.get(k), vd.get(k)) for k in set(va) | set(vd) if va.get(k) != vd.get(k)}
    )
    ea = arrays_framework.edge_betweenness()
    ed = dicts_framework.edge_betweenness()
    assert ea == ed, f"{context}: edge scores diverge: " + repr(
        {k: (ea.get(k), ed.get(k)) for k in set(ea) | set(ed) if ea.get(k) != ed.get(k)}
    )


class TestBackendBitIdentity:
    @given(graph_and_updates())
    def test_single_update_stream(self, case):
        graph, script = case
        arrays = IncrementalBetweenness(graph, backend="arrays")
        dicts = IncrementalBetweenness(graph, backend="dicts")
        assert_bit_identical(arrays, dicts, "bootstrap")
        for i, update in enumerate(script):
            arrays.apply(update)
            dicts.apply(update)
            assert_bit_identical(arrays, dicts, f"after update {i} ({update})")

    @given(graph_and_updates(), st.integers(min_value=1, max_value=4))
    def test_batched_stream(self, case, batch_size):
        graph, script = case
        arrays = IncrementalBetweenness(graph, backend="arrays")
        dicts = IncrementalBetweenness(graph, backend="dicts")
        for start in range(0, len(script), batch_size):
            chunk = script[start : start + batch_size]
            result_arrays = arrays.apply_updates(chunk)
            result_dicts = dicts.apply_updates(chunk)
            # The vectorized peek must make exactly the scalar decisions.
            assert result_arrays.sources_loaded == result_dicts.sources_loaded
            assert (
                result_arrays.sources_peek_skipped
                == result_dicts.sources_peek_skipped
            )
            assert_bit_identical(arrays, dicts, f"after batch at {start}")

    @given(graph_and_updates())
    def test_stored_records_match(self, case):
        graph, script = case
        arrays = IncrementalBetweenness(graph, backend="arrays")
        dicts = IncrementalBetweenness(graph, backend="dicts")
        for update in script:
            arrays.apply(update)
            dicts.apply(update)
        assert set(arrays.store.sources()) == set(dicts.store.sources())
        for source in dicts.store.sources():
            flat = arrays.store.get(source)
            record = dicts.store.get(source)
            assert flat.distance == record.distance
            assert flat.sigma == record.sigma
            assert flat.delta == record.delta

    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_disk_store_backed_kernel(self, use_mmap, tmp_path):
        rng = random.Random(42)
        graph = Graph()
        for v in range(12):
            graph.add_vertex(v)
        for u in range(12):
            for v in range(u + 1, 12):
                if rng.random() < 0.3:
                    graph.add_edge(u, v)
        store = DiskBDStore(
            graph.vertex_list(),
            path=tmp_path / f"bd-{use_mmap}.bin",
            use_mmap=use_mmap,
        )
        arrays = IncrementalBetweenness(graph, store=store, backend="arrays")
        dicts = IncrementalBetweenness(graph, backend="dicts")
        assert_bit_identical(arrays, dicts, "disk bootstrap")
        updates = [
            EdgeUpdate.addition(0, 12),
            EdgeUpdate.removal(*graph.edge_list()[0]),
            EdgeUpdate.addition(3, 13),
            EdgeUpdate.removal(*graph.edge_list()[1]),
        ]
        arrays.apply_updates(updates)
        dicts.apply_updates(updates)
        assert_bit_identical(arrays, dicts, "disk batched updates")
        store.close()

    def test_restricted_partitions_sum_to_exact(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        parts = [[0, 1], [2, 3]]
        partials = [
            IncrementalBetweenness(graph, sources=p, backend="arrays") for p in parts
        ]
        exact = IncrementalBetweenness(graph, backend="dicts")
        for framework in partials + [exact]:
            framework.add_edge(0, 2)
        merged = {}
        for framework in partials:
            for vertex, score in framework.vertex_betweenness().items():
                merged[vertex] = merged.get(vertex, 0.0) + score
        expected = exact.vertex_betweenness()
        assert set(merged) == set(expected)
        for vertex in expected:
            assert merged[vertex] == pytest.approx(expected[vertex], abs=1e-12)

    def test_from_source_data_matches_dict_backend(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        seed = IncrementalBetweenness(graph, backend="dicts")
        snapshot = seed.store.snapshot()
        arrays = IncrementalBetweenness.from_source_data(
            graph, snapshot, restricted=False, backend="arrays"
        )
        dicts = IncrementalBetweenness.from_source_data(
            graph, snapshot, restricted=False, backend="dicts"
        )
        assert_bit_identical(arrays, dicts, "from_source_data")
        arrays.add_edge(0, 2)
        dicts.add_edge(0, 2)
        assert_bit_identical(arrays, dicts, "from_source_data + update")


class TestBrandesArraysBackend:
    @given(graph_and_updates())
    def test_static_scores_bit_identical(self, case):
        graph, _ = case
        scalar = brandes_betweenness(graph, collect_source_data=True)
        vector = brandes_betweenness_arrays(graph, collect_source_data=True)
        assert scalar.vertex_scores == vector.vertex_scores
        assert scalar.edge_scores == vector.edge_scores
        assert set(scalar.source_data) == set(vector.source_data)
        for source, record in scalar.source_data.items():
            flat = vector.source_data[source]
            assert record.distance == flat.distance
            assert record.sigma == flat.sigma
            assert record.delta == flat.delta

    def test_backend_parameter_delegates(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        scalar = brandes_betweenness(graph)
        vector = brandes_betweenness(graph, backend="arrays")
        assert scalar.vertex_scores == vector.vertex_scores
        assert scalar.edge_scores == vector.edge_scores

    def test_arrays_rejects_predecessors(self):
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            brandes_betweenness(graph, backend="arrays", keep_predecessors=True)

    def test_arrays_accepts_directed(self):
        directed = Graph(directed=True)
        directed.add_edge(0, 1)
        directed.add_edge(1, 2)
        scalar = brandes_betweenness(directed)
        vector = brandes_betweenness(directed, backend="arrays")
        assert scalar.vertex_scores == vector.vertex_scores
        assert scalar.edge_scores == vector.edge_scores


class TestCSRMirror:
    def test_neighbor_order_mirrors_graph(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        index = VertexIndex(graph.vertex_list())
        csr = CSRGraph.from_graph(graph, index)
        # Removal + re-add moves the neighbor to the end in both structures.
        graph.remove_edge(0, 2)
        csr.remove_edge(0, 2)
        graph.add_edge(0, 2)
        csr.add_edge(0, 2, edge_id=1)
        for label in graph.vertices():
            expected = [index.slot(n) for n in graph.out_neighbors(label)]
            assert csr.neighbors(index.slot(label)) == expected

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_patches_are_fresh_arrays_and_never_rebuild(self, directed):
        graph = Graph(directed=directed)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            graph.add_edge(u, v)
        index = VertexIndex(graph.vertex_list())
        csr = CSRGraph.from_graph(graph, index)
        assert csr.rebuild_count == 1  # the from-scratch compile
        held = csr.compiled()[:3] + csr.compiled_in()
        pristine = [array.copy() for array in held]
        csr.add_edge(0, 3, edge_id=7)
        csr.remove_edge(0, 3)
        csr.add_edge(0, 2, edge_id=8)
        assert csr.rebuild_count == 1  # three patches, no rebuild
        # A patch never writes the arrays it started from, so references
        # taken before it stay exact snapshots.
        for kept, original in zip(held, pristine):
            assert kept.tolist() == original.tolist()
        # An addition lands at its rows' ends under the id it was given.
        indptr, indices, edge_ids, _pairs = csr.compiled()
        assert csr.neighbors(0) == [1, 2]
        assert edge_ids[indptr[0] : indptr[1]].tolist() == [0, 8]
        in_indptr, in_indices, in_edge_ids = csr.compiled_in()
        assert in_indices[in_indptr[2] : in_indptr[3]].tolist()[-1] == 0
        assert in_edge_ids[in_indptr[2] : in_indptr[3]].tolist()[-1] == 8
        assert csr.num_edges == 4

    def test_compiled_slices_match_adjacency(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        index = VertexIndex(graph.vertex_list())
        csr = CSRGraph.from_graph(graph, index)
        indptr, indices, edge_ids, edge_pairs = csr.compiled()
        for slot in range(csr.num_vertices):
            slice_ = indices[indptr[slot] : indptr[slot + 1]].tolist()
            assert slice_ == csr.neighbors(slot)
        assert len(edge_pairs) == csr.num_edges
        # Every directed entry's id resolves to the canonical pair it sits on.
        for slot in range(csr.num_vertices):
            for offset in range(int(indptr[slot]), int(indptr[slot + 1])):
                neighbor = int(indices[offset])
                pair = edge_pairs[int(edge_ids[offset])]
                assert pair == ((slot, neighbor) if slot <= neighbor else (neighbor, slot))
        for i, j in edge_pairs:
            assert i <= j
            assert csr.has_edge(i, j)


class TestArrayStore:
    def test_roundtrip_and_growth(self):
        store = ArrayBDStore(range(4), capacity=4)
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        result = brandes_betweenness(graph, collect_source_data=True)
        for record in result.source_data.values():
            store.put(record)
        assert len(store) == 4
        for source, record in result.source_data.items():
            loaded = store.get(source)
            assert loaded.distance == record.distance
            assert loaded.sigma == record.sigma
            assert loaded.delta == record.delta
        # Growth keeps existing records intact.
        for vertex in range(4, 9):
            store.register_vertex(vertex)
        assert store.capacity >= 9
        assert store.get(0).distance == result.source_data[0].distance
        assert store.endpoint_distances(0, 1, 8) == (1, None)

    def test_snapshot_is_independent(self):
        store = ArrayBDStore(range(3))
        store.add_source(0)
        snapshot = store.snapshot()
        snapshot[0].distance[1] = 5
        assert store.get(0).distance == {0: 0}

    def test_arrays_backend_rejects_dict_store(self):
        from repro.storage import InMemoryBDStore

        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            IncrementalBetweenness(
                graph, store=InMemoryBDStore(), backend="arrays"
            )

    def test_arrays_backend_names_the_missing_column_method(self):
        class NoMatrices:
            """An array store minus the bulk half of the column protocol."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == "column_matrices":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        graph = Graph.from_edges([(0, 1)])
        store = NoMatrices(ArrayBDStore(graph.vertex_list()))
        with pytest.raises(ConfigurationError, match="column_matrices"):
            IncrementalBetweenness(graph, store=store, backend="arrays")

    def test_unknown_backend_rejected(self):
        graph = Graph.from_edges([(0, 1)])
        with pytest.raises(ConfigurationError):
            IncrementalBetweenness(graph, backend="sparse")

    def test_restricted_instance_allocates_rows_not_slots(self):
        # A partition worker's store must be proportional to its own
        # sources, not to the whole vertex set (capacity^2 would multiply
        # by the partition count across mappers).
        graph = Graph.from_edges([(v, v + 1) for v in range(199)])
        framework = IncrementalBetweenness(
            graph, sources=list(range(10)), backend="arrays"
        )
        store = framework.store
        assert isinstance(store, ArrayBDStore)
        assert store._dist.shape[0] < 50  # rows ~ owned sources, not 200
        assert store.capacity >= 200  # columns still cover every vertex

    def test_bootstrap_sigma_overflow_raises(self):
        # Stacked 2-vertex layers double the path count per layer; past
        # 2**63 the int64 sigma column cannot represent it and the kernel
        # must raise (the dict backend with a columnar store raises the
        # same error at encode time) instead of silently wrapping.
        from repro.core.kernel import brandes_betweenness_arrays
        from repro.exceptions import StoreCorruptedError

        graph = Graph()
        previous = [0]
        next_vertex = 1
        for _ in range(66):
            current = [next_vertex, next_vertex + 1]
            next_vertex += 2
            for a in previous:
                for b in current:
                    graph.add_edge(a, b)
            previous = current
        with pytest.raises(StoreCorruptedError):
            brandes_betweenness_arrays(graph, sources=[0])
