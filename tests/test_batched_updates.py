"""Batched pipeline: apply_updates must match the one-at-a-time path exactly."""

import random

import pytest

from repro.algorithms import brandes_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness, batches
from repro.exceptions import UpdateError
from repro.storage.disk import DiskBDStore

from tests.helpers import assert_scores_equal, copy_records, random_connected_graph

TOLERANCE = 1e-9


def random_update_sequence(graph, length, seed, new_vertex_probability=0.15):
    """Random mixed add/remove stream, including brand-new vertices."""
    rng = random.Random(seed)
    scratch = graph.copy()
    next_new = 1000
    updates = []
    for _ in range(length):
        roll = rng.random()
        edges = scratch.edge_list()
        if roll < 0.35 and len(edges) > scratch.num_vertices:
            u, v = rng.choice(edges)
            updates.append(EdgeUpdate.removal(u, v))
            scratch.remove_edge(u, v)
        elif roll < 0.35 + new_vertex_probability:
            u = rng.choice(scratch.vertex_list())
            updates.append(EdgeUpdate.addition(u, next_new))
            scratch.add_edge(u, next_new)
            next_new += 1
        else:
            while True:
                u, v = rng.sample(scratch.vertex_list(), 2)
                if not scratch.has_edge(u, v):
                    break
            updates.append(EdgeUpdate.addition(u, v))
            scratch.add_edge(u, v)
    return updates


def assert_matches_serial(graph, updates, batch_size, store_factory=None):
    serial = IncrementalBetweenness(graph)
    for update in updates:
        serial.apply(update)
    store = store_factory() if store_factory else None
    batched = IncrementalBetweenness(graph, store=store)
    for chunk in batches(updates, batch_size):
        batched.apply_updates(chunk)
    assert_scores_equal(
        batched.vertex_betweenness(), serial.vertex_betweenness(), TOLERANCE, "vertex"
    )
    assert_scores_equal(
        batched.edge_betweenness(), serial.edge_betweenness(), TOLERANCE, "edge"
    )
    # The score-key sets must agree exactly, not just within tolerance.
    assert set(batched.edge_betweenness()) == set(serial.edge_betweenness())
    reference = brandes_betweenness(batched.graph)
    assert_scores_equal(
        batched.vertex_betweenness(), reference.vertex_scores, TOLERANCE, "brandes"
    )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("batch_size", [2, 5, 16])
    def test_random_sequences(self, seed, batch_size):
        graph = random_connected_graph(16, 0.12, seed=seed)
        updates = random_update_sequence(graph, 14, seed=seed * 7 + 1)
        assert_matches_serial(graph, updates, batch_size)

    def test_batch_of_one_equals_serial(self):
        graph = random_connected_graph(12, 0.2, seed=3)
        updates = random_update_sequence(graph, 8, seed=9)
        assert_matches_serial(graph, updates, batch_size=1)

    def test_whole_stream_as_single_batch(self):
        graph = random_connected_graph(14, 0.15, seed=5)
        updates = random_update_sequence(graph, 12, seed=11)
        assert_matches_serial(graph, updates, batch_size=len(updates))

    def test_disk_store(self):
        graph = random_connected_graph(12, 0.15, seed=8)
        updates = random_update_sequence(graph, 10, seed=21)
        assert_matches_serial(
            graph, updates, 4, store_factory=lambda: DiskBDStore(graph.vertex_list())
        )

    def test_add_then_remove_same_edge_in_batch(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        framework.apply_updates(
            [EdgeUpdate.addition(0, 3), EdgeUpdate.removal(0, 3)]
        )
        reference = brandes_betweenness(cycle6)
        assert_scores_equal(
            framework.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )
        assert (0, 3) not in framework.edge_betweenness()

    def test_remove_then_readd_same_edge_in_batch(self, two_triangles_bridge):
        framework = IncrementalBetweenness(two_triangles_bridge)
        framework.apply_updates(
            [EdgeUpdate.removal(2, 3), EdgeUpdate.addition(2, 3)]
        )
        reference = brandes_betweenness(two_triangles_bridge)
        assert_scores_equal(
            framework.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )
        assert_scores_equal(
            framework.edge_betweenness(), reference.edge_scores, TOLERANCE
        )

    def test_new_vertex_chain_in_one_batch(self, path5):
        framework = IncrementalBetweenness(path5)
        framework.apply_updates(
            [
                EdgeUpdate.addition(4, 100),
                EdgeUpdate.addition(100, 101),
                EdgeUpdate.addition(101, 0),
            ]
        )
        reference = brandes_betweenness(framework.graph)
        assert_scores_equal(
            framework.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )
        assert framework.num_sources == 7


class TestBatchedBookkeeping:
    def test_empty_batch_is_a_no_op(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        before = framework.vertex_betweenness()
        result = framework.apply_updates([])
        assert result.num_updates == 0
        assert framework.vertex_betweenness() == before

    def test_invalid_update_leaves_state_untouched(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        before_scores = framework.vertex_betweenness()
        before_edges = set(framework.graph.edges())
        with pytest.raises(UpdateError):
            framework.apply_updates(
                [EdgeUpdate.addition(0, 3), EdgeUpdate.addition(0, 1)]  # 0-1 exists
            )
        assert framework.vertex_betweenness() == before_scores
        assert set(framework.graph.edges()) == before_edges

    def test_duplicate_addition_within_batch_rejected(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        with pytest.raises(UpdateError):
            framework.apply_updates(
                [EdgeUpdate.addition(0, 2), EdgeUpdate.addition(2, 0)]
            )

    def test_adopt_rejected_on_unrestricted_instance(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        with pytest.raises(UpdateError):
            framework.apply_updates([EdgeUpdate.addition(0, 99)], adopt=[99])

    def test_adopt_of_unknown_vertex_rejected(self, cycle6):
        framework = IncrementalBetweenness(cycle6, sources=[0, 1])
        with pytest.raises(UpdateError):
            framework.apply_updates([EdgeUpdate.addition(0, 2)], adopt=[99])
        assert 99 not in framework.store

    def test_statistics_match_serial_path(self):
        graph = random_connected_graph(15, 0.15, seed=2)
        updates = random_update_sequence(graph, 9, seed=4, new_vertex_probability=0.0)
        serial = IncrementalBetweenness(graph)
        serial_results = [serial.apply(update) for update in updates]
        batched = IncrementalBetweenness(graph)
        batch_result = batched.apply_updates(updates)
        assert batch_result.num_updates == len(updates)
        for ours, theirs in zip(batch_result.results, serial_results):
            assert ours.case_counts == theirs.case_counts
            assert ours.sources_processed == theirs.sources_processed
            assert ours.sources_skipped == theirs.sources_skipped
            assert ours.affected_vertices == theirs.affected_vertices

    def test_loads_amortized_across_batch(self):
        graph = random_connected_graph(20, 0.1, seed=6)
        updates = random_update_sequence(graph, 12, seed=13, new_vertex_probability=0.0)
        one_by_one = IncrementalBetweenness(graph)
        loads_serial = sum(
            one_by_one.apply_updates(chunk).sources_loaded
            for chunk in batches(updates, 1)
        )
        batched = IncrementalBetweenness(graph)
        loads_batched = batched.apply_updates(updates).sources_loaded
        assert loads_batched <= loads_serial
        assert_scores_equal(
            batched.vertex_betweenness(), one_by_one.vertex_betweenness(), TOLERANCE
        )

    def test_timing_recorded(self, cycle6):
        framework = IncrementalBetweenness(cycle6)
        result = framework.apply_updates([EdgeUpdate.addition(0, 2)])
        assert result.elapsed_seconds is not None
        assert result.elapsed_seconds >= 0.0
        assert result.seconds_per_update == pytest.approx(result.elapsed_seconds)


class TestBatchesHelper:
    def test_chunks_preserve_order(self):
        updates = [EdgeUpdate.addition(i, i + 1) for i in range(7)]
        chunks = list(batches(updates, 3))
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        assert [u for chunk in chunks for u in chunk] == updates

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(batches([], 0))


class TestFromStore:
    def test_rebuilds_scores_from_copied_records(self):
        graph = random_connected_graph(14, 0.15, seed=17)
        original = IncrementalBetweenness(graph)
        clone = IncrementalBetweenness.from_store(
            graph, copy_records(original.store), restricted=False
        )
        assert_scores_equal(
            clone.vertex_betweenness(), original.vertex_betweenness(), TOLERANCE
        )
        assert_scores_equal(
            clone.edge_betweenness(), original.edge_betweenness(), TOLERANCE
        )
        # The clone must keep evolving correctly.
        clone.add_edge(0, 13) if not clone.graph.has_edge(0, 13) else clone.remove_edge(0, 13)
        reference = brandes_betweenness(clone.graph)
        assert_scores_equal(
            clone.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )

    def test_clone_is_independent_of_the_original(self):
        graph = random_connected_graph(15, 0.25, seed=23)
        original = IncrementalBetweenness(graph)
        clone = IncrementalBetweenness.from_store(
            graph, copy_records(original.store), restricted=False
        )
        # Applying the same removal to both must not crash or cross-talk:
        # a clone sharing live records with the original would make the
        # second instance repair an already-repaired BD[s].
        u, v = graph.edge_list()[3]
        original.remove_edge(u, v)
        clone.remove_edge(u, v)
        reference = brandes_betweenness(clone.graph)
        assert_scores_equal(
            clone.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )
        assert_scores_equal(
            original.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )

    def test_partial_store_gives_partial_scores(self):
        graph = random_connected_graph(10, 0.2, seed=19)
        original = IncrementalBetweenness(graph)
        half = list(graph.vertices())[:5]
        partial = IncrementalBetweenness.from_store(
            graph, copy_records(original.store, half)
        )
        reference = brandes_betweenness(graph, sources=half)
        assert_scores_equal(
            partial.vertex_betweenness(), reference.vertex_scores, TOLERANCE
        )
        assert_scores_equal(
            partial.edge_betweenness(), reference.edge_scores, TOLERANCE
        )
