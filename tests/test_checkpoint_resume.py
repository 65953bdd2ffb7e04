"""Checkpoint/resume of the framework and file-seeded parallel workers."""

import random

import pytest

from repro.algorithms import brandes_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.exceptions import ConfigurationError, StoreCorruptedError
from repro.generators import erdos_renyi_digraph
from repro.graph import Graph
from repro.parallel import ShardCoordinator
from repro.parallel.shards import merge_partial_scores
from repro.storage import ArrayBDStore, DiskBDStore

from tests.helpers import assert_scores_equal, copy_records, random_connected_graph
from tests.test_batched_updates import random_update_sequence


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


class TestAtomicSidecarWrites:
    def test_failed_write_keeps_the_previous_sidecar(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.header as header

        graph = random_connected_graph(10, 0.2, seed=3)
        spare = absent_edges(graph)
        framework = IncrementalBetweenness(graph, backend="arrays")
        framework.add_edge(*spare[0])
        framework.checkpoint(tmp_path / "ck.bin")
        saved = framework.vertex_betweenness(), framework.edge_betweenness()
        framework.add_edge(*spare[1])

        def failing_fsync(fd):
            raise OSError("simulated crash after the new bytes were written")

        monkeypatch.setattr(header.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            framework.checkpoint(tmp_path / "ck.bin")
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
        resumed = IncrementalBetweenness.resume(tmp_path / "ck.bin", backend="arrays")
        assert (resumed.vertex_betweenness(), resumed.edge_betweenness()) == saved

    def test_successful_write_leaves_no_temp_file(self, tmp_path):
        framework = IncrementalBetweenness(random_connected_graph(8, 0.2, seed=1))
        framework.checkpoint(tmp_path / "ck.bin")
        framework.checkpoint(tmp_path / "ck.bin")  # replaces an existing file
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


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

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("store", ["memory", "disk"])
    @pytest.mark.parametrize("backend", ["arrays", "dicts"])
    def test_store_file_seeding_equals_per_source_records(
        self, tmp_path, backend, store, directed
    ):
        """Workers seeded from a store file score ``==`` partitions rebuilt
        from that file's per-source records and streamed the same batches,
        folded in partition order."""
        if directed:
            graph = erdos_renyi_digraph(40, 0.08, rng=random.Random(13))
        else:
            graph = random_connected_graph(40, 0.08, seed=13)
        path = tmp_path / "bd.bin"
        durable = DiskBDStore(graph.vertex_list(), path=path, directed=directed)
        IncrementalBetweenness(graph, store=durable)
        durable.flush()
        updates = random_update_sequence(
            graph, 8, seed=14, new_vertex_probability=0.0
        )
        batches = [updates[i : i + 2] for i in range(0, len(updates), 2)]
        try:
            with ShardCoordinator(
                graph,
                num_workers=2,
                backend=backend,
                store=store,
                source_store_path=path,
            ) as coordinator:
                for batch in batches:
                    coordinator.apply_batch(batch)
                scores = coordinator.betweenness()
                partitions = coordinator.partitions
            references = []
            for partition in partitions:
                sources = list(partition.sources)
                if store == "disk":
                    seeded = DiskBDStore(
                        graph.vertex_list(), sources=sources, directed=directed
                    )
                elif backend == "arrays":
                    seeded = ArrayBDStore(graph.vertex_list(), directed=directed)
                else:
                    seeded = None
                reference = IncrementalBetweenness.from_store(
                    graph,
                    copy_records(durable, sources, into=seeded),
                    restricted=True,
                    backend=backend,
                )
                for batch in batches:
                    reference.apply_updates(batch)
                references.append(reference)
        finally:
            durable.close()
        expected = (
            merge_partial_scores([r.vertex_betweenness() for r in references]),
            merge_partial_scores([r.edge_betweenness() for r in references]),
        )
        for reference in references:
            reference.store.close()
        assert scores == expected

    @pytest.mark.parametrize(
        "defect", ["missing-sources", "truncated", "version-two"]
    )
    def test_seed_file_refusal_keeps_its_type(self, tmp_path, defect):
        """A seed file the workers cannot use is refused with the type the
        store raised, not a generic worker failure; the file stays as it
        was, and no worker process or shared-memory segment is left."""
        import multiprocessing

        from repro.exceptions import StoreVersionError
        from repro.storage.buffers import active_segments

        from tests.test_disk_format import _write_version_two

        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "bd.bin"
        sources = [0, 1] if defect == "missing-sources" else None
        DiskBDStore(graph.vertex_list(), path=path, sources=sources).close()
        if defect == "truncated":
            path.write_bytes(path.read_bytes()[:200])
        elif defect == "version-two":
            _write_version_two(path)
        expected = {
            "missing-sources": (ConfigurationError, "lacks records for sources"),
            "truncated": (StoreCorruptedError, "truncated"),
            "version-two": (StoreVersionError, f"repro migrate {path}"),
        }[defect]
        before = path.read_bytes()
        segments = set(active_segments())
        with pytest.raises(expected[0], match=expected[1]):
            with ShardCoordinator(graph, num_workers=2, source_store_path=path):
                pass
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bd.bin"]
        assert multiprocessing.active_children() == []
        assert set(active_segments()) <= segments


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
        meta = {"shard_id": 1, "num_shards": 4}
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

    def test_moved_root_resumes_exactly(self, tmp_path):
        """A root moved (or restored) elsewhere resumes to the same scores:
        nothing in it depends on the path it was written at."""
        import shutil

        from repro.parallel import ShardCoordinator

        coordinator, layout, spare = self._run_rounds(tmp_path)
        coordinator.add_edge(*spare[0])
        scores = coordinator.betweenness()
        coordinator.close()  # final round at the current cursor
        moved = tmp_path / "elsewhere" / "shards"
        shutil.move(str(layout.root), str(moved))
        resumed = ShardCoordinator.resume(moved)
        try:
            assert resumed.betweenness() == scores
        finally:
            resumed.close(checkpoint=False)
