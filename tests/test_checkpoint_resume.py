"""Checkpoint/resume of the framework and file-seeded parallel workers."""

import pytest

from repro.algorithms import brandes_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.exceptions import ConfigurationError, StoreCorruptedError
from repro.graph import Graph
from repro.parallel import ShardCoordinator
from repro.storage import DiskBDStore

from tests.helpers import assert_scores_equal, random_connected_graph


def absent_edges(graph):
    """Vertex pairs not currently connected, in deterministic order."""
    vertices = sorted(graph.vertices())
    return [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if not graph.has_edge(u, v)
    ]


@pytest.fixture
def evolving_case(tmp_path):
    """A DO framework that streamed some updates, plus edges still absent."""
    graph = random_connected_graph(14, 0.15, seed=11)
    spare = absent_edges(graph)
    store = DiskBDStore(graph.vertex_list(), path=tmp_path / "bd.bin")
    framework = IncrementalBetweenness(graph, store=store)
    framework.add_edge(*spare[0])
    framework.remove_edge(*sorted(graph.edges())[0])
    framework.add_edge(*spare[1])
    return framework, tmp_path, spare[2:]


class TestCheckpointResume:
    def test_resume_restores_exact_scores(self, evolving_case):
        framework, tmp_path, _ = evolving_case
        vertex_scores = framework.vertex_betweenness()
        edge_scores = framework.edge_betweenness()
        framework.checkpoint(tmp_path / "ck.bin")
        framework.store.close()

        resumed = IncrementalBetweenness.resume(tmp_path / "ck.bin")
        try:
            assert resumed.vertex_betweenness() == vertex_scores
            assert resumed.edge_betweenness() == edge_scores
            assert resumed.num_sources == framework.num_sources
        finally:
            resumed.store.close()

    def test_resumed_instance_stays_exact_under_updates(self, evolving_case):
        framework, tmp_path, spare = evolving_case
        framework.checkpoint(tmp_path / "ck.bin")
        framework.store.close()
        resumed = IncrementalBetweenness.resume(tmp_path / "ck.bin")
        try:
            resumed.add_edge(*spare[0])
            resumed.remove_edge(*sorted(resumed.graph.edges())[0])
            reference = brandes_betweenness(resumed.graph)
            assert_scores_equal(resumed.vertex_betweenness(), reference.vertex_scores)
            assert_scores_equal(resumed.edge_betweenness(), reference.edge_scores)
        finally:
            resumed.store.close()

    def test_memory_store_checkpoint_embeds_snapshot(self, tmp_path):
        graph = random_connected_graph(10, 0.2, seed=3)
        spare = absent_edges(graph)
        framework = IncrementalBetweenness(graph)  # in-memory store
        framework.add_edge(*spare[0])
        framework.checkpoint(tmp_path / "mem.ck")
        resumed = IncrementalBetweenness.resume(tmp_path / "mem.ck")
        assert resumed.vertex_betweenness() == framework.vertex_betweenness()
        resumed.add_edge(*spare[1])
        assert_scores_equal(
            resumed.vertex_betweenness(),
            brandes_betweenness(resumed.graph).vertex_scores,
        )

    def test_stale_checkpoint_is_refused(self, evolving_case):
        framework, tmp_path, spare = evolving_case
        framework.checkpoint(tmp_path / "ck.bin")
        # Mutate the store *after* the checkpoint: the sidecar is now stale.
        framework.add_edge(*spare[0])
        framework.store.close()
        with pytest.raises(ConfigurationError):
            IncrementalBetweenness.resume(tmp_path / "ck.bin")

    def test_refreshed_checkpoint_is_accepted_again(self, evolving_case):
        framework, tmp_path, spare = evolving_case
        framework.checkpoint(tmp_path / "ck.bin")
        framework.add_edge(*spare[0])
        framework.checkpoint(tmp_path / "ck.bin")  # refresh after mutating
        framework.store.close()
        resumed = IncrementalBetweenness.resume(tmp_path / "ck.bin")
        try:
            assert_scores_equal(
                resumed.vertex_betweenness(),
                brandes_betweenness(resumed.graph).vertex_scores,
            )
        finally:
            resumed.store.close()

    def test_corrupted_checkpoint_is_rejected(self, evolving_case):
        framework, tmp_path, _ = evolving_case
        framework.checkpoint(tmp_path / "ck.bin")
        framework.store.close()
        blob = bytearray((tmp_path / "ck.bin").read_bytes())
        blob[-3] ^= 0x55
        (tmp_path / "ck.bin").write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptedError):
            IncrementalBetweenness.resume(tmp_path / "ck.bin")


class TestFromStore:
    def test_partition_store_is_detected_as_restricted(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        vertices = graph.vertex_list()
        partition = vertices[: len(vertices) // 2]
        store = DiskBDStore(vertices, path=tmp_path / "bd.bin", sources=partition)
        worker = IncrementalBetweenness(graph, store=store, sources=partition)
        worker.add_edge(*absent_edges(graph)[0])
        graph_after = worker.graph.copy()
        store.close()

        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        resumed = IncrementalBetweenness.from_store(graph_after, reopened)
        try:
            assert resumed._restricted is True
            assert_scores_equal(
                resumed.vertex_betweenness(), worker.vertex_betweenness()
            )
            assert_scores_equal(resumed.edge_betweenness(), worker.edge_betweenness())
        finally:
            reopened.close()


class TestFileSeededExecutor:
    def test_workers_seeded_from_store_file_match_serial(self, tmp_path):
        graph = random_connected_graph(12, 0.2, seed=9)
        store = DiskBDStore(graph.vertex_list(), path=tmp_path / "bd.bin")
        serial = IncrementalBetweenness(graph, store=store)
        store.flush()

        spare = absent_edges(graph)
        updates = [
            EdgeUpdate.addition(*spare[0]),
            EdgeUpdate.addition(*spare[1]),
            EdgeUpdate.removal(*spare[0]),
        ]
        with ShardCoordinator(
            graph, num_workers=2, source_store_path=tmp_path / "bd.bin"
        ) as cluster:
            cluster.apply_batch(updates)
            parallel_vertex, parallel_edge = cluster.betweenness()
        serial.apply_updates(updates)
        assert_scores_equal(serial.vertex_betweenness(), parallel_vertex)
        assert_scores_equal(serial.edge_betweenness(), parallel_edge)
        store.close()

    def test_snapshot_and_store_path_are_mutually_exclusive(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            ShardCoordinator(
                graph,
                num_workers=1,
                source_data={},
                source_store_path=tmp_path / "bd.bin",
            )

    def test_store_file_missing_sources_fails_loudly(self, tmp_path):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        partial = DiskBDStore(
            graph.vertex_list(), path=tmp_path / "bd.bin", sources=[0, 1]
        )
        partial.close()
        with pytest.raises(Exception):
            with ShardCoordinator(
                graph, num_workers=2, source_store_path=tmp_path / "bd.bin"
            ):
                pass


class TestShardCheckpointStaleness:
    """Checkpoint *generations* across shards (the sharded analogue of
    ``test_stale_checkpoint_is_refused``).

    The contract: a shard checkpoint older than the coordinator's batch
    cursor is either replayed forward from the retained batch log (live
    recovery) or refused (restart, where no log exists) — it is **never**
    silently mixed with fresher shards.
    """

    def _run_rounds(self, tmp_path, extra_batches=0):
        from repro.parallel import ShardCoordinator
        from repro.storage.shard import ShardLayout

        graph = random_connected_graph(10, 0.2, seed=21)
        spare = absent_edges(graph)
        layout = ShardLayout(
            root=tmp_path / "shards", num_shards=2, checkpoint_every=2
        )
        coordinator = ShardCoordinator(graph, layout)
        for u, v in spare[:2]:
            coordinator.add_edge(u, v)  # round committed at cursor 2
        return coordinator, layout, spare[2:]

    def test_batch_cursor_and_shard_meta_round_trip(self, evolving_case):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        framework, tmp_path, _ = evolving_case
        meta = {"shard_id": 1, "num_shards": 4, "source_order": [3, 0, 7]}
        checkpoint = framework.build_checkpoint(batch_cursor=7, shard_meta=meta)
        save_checkpoint(tmp_path / "shard.ck", checkpoint)
        loaded = load_checkpoint(tmp_path / "shard.ck")
        assert loaded.batch_cursor == 7
        assert loaded.shard_meta == meta
        framework.store.close()

    def test_older_sidecar_is_replayed_forward_during_live_recovery(
        self, tmp_path
    ):
        """Live recovery: the dead shard's sidecar lags the cursor by one
        batch, and the coordinator replays exactly that gap."""
        import os
        import signal

        coordinator, layout, spare = self._run_rounds(tmp_path)
        events = []
        coordinator.notify = lambda kind, **fields: events.append((kind, fields))
        try:
            # One more batch, below the cadence: sidecars stay at cursor 2.
            coordinator.add_edge(*spare[0])
            os.kill(coordinator._handles[1].process.pid, signal.SIGKILL)
            coordinator._handles[1].process.join(timeout=10.0)
            coordinator.add_edge(*spare[1])
            recoveries = [f for kind, f in events if kind == "shard_recovered"]
            assert [r["replayed_batches"] for r in recoveries] == [1]
        finally:
            coordinator.close(checkpoint=False)

    def test_stale_sidecar_is_refused_on_restart(self, tmp_path):
        """Restart: one shard's sidecar is from an older round than the
        manifest; with no replay log the root must be refused outright."""
        import shutil

        from repro.parallel import ShardCoordinator

        coordinator, layout, spare = self._run_rounds(tmp_path)
        stale = tmp_path / "stale-sidecar.bin"
        shutil.copy(layout.checkpoint_path(0), stale)  # cursor 2
        for u, v in spare[:2]:
            coordinator.add_edge(u, v)  # next round: cursor 4
        coordinator.close()
        shutil.copy(stale, layout.checkpoint_path(0))
        with pytest.raises(ConfigurationError, match="refusing to mix"):
            ShardCoordinator.resume(layout.root)

    def test_leading_sidecars_are_refused_on_restart(self, tmp_path):
        """The opposite skew — a manifest older than every sidecar (say a
        restored backup of the root's manifest only) — is just as mixed."""
        from dataclasses import replace

        from repro.parallel import ShardCoordinator
        from repro.storage.shard import load_manifest

        coordinator, layout, spare = self._run_rounds(tmp_path)
        for u, v in spare[:2]:
            coordinator.add_edge(u, v)
        coordinator.close()
        manifest = load_manifest(layout.root)
        layout.write_manifest(replace(manifest, batch_cursor=manifest.batch_cursor - 2))
        with pytest.raises(ConfigurationError, match="refusing to mix"):
            ShardCoordinator.resume(layout.root)

    def test_mutated_store_generation_is_refused_on_restart(self, tmp_path):
        """A shard store touched behind its sidecar's back (generation moved
        on) must fail the resume instead of seeding a worker from it."""
        from repro.core.checkpoint import load_checkpoint
        from repro.exceptions import UpdateError
        from repro.parallel import ShardCoordinator

        coordinator, layout, _ = self._run_rounds(tmp_path)
        coordinator.close()
        sidecar = load_checkpoint(layout.checkpoint_path(0))
        tampered = DiskBDStore.open(sidecar.store_path)
        source = next(iter(tampered.sources()))
        tampered.put(tampered.get(source))
        tampered.flush()  # bumps the generation past the sidecar's
        tampered.close()
        with pytest.raises(UpdateError, match="generation"):
            ShardCoordinator.resume(layout.root)
