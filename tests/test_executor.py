"""The worker runtime without a shard root (the ``process`` executor):
merged scores must equal the serial framework, and a failed worker is a
prompt, terminal, leak-free error."""

import pytest

from repro.algorithms import brandes_betweenness
from repro.api.config import EXECUTORS
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.exceptions import ConfigurationError, UpdateError
from repro.parallel import ShardCoordinator
from repro.storage import DiskBDStore

from tests.helpers import assert_scores_equal, random_connected_graph
from tests.test_batched_updates import random_update_sequence

TOLERANCE = 1e-9


def serial_reference(graph, updates):
    framework = IncrementalBetweenness(graph)
    for update in updates:
        framework.apply(update)
    return framework


class TestExecutorEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_across_worker_counts(self, workers):
        graph = random_connected_graph(14, 0.15, seed=31)
        updates = random_update_sequence(graph, 8, seed=32)
        serial = serial_reference(graph, updates)
        with ShardCoordinator(graph, num_workers=workers) as cluster:
            cluster.process_stream(updates, batch_size=1)
            vertex_scores, edge_scores = cluster.betweenness()
        assert_scores_equal(
            vertex_scores, serial.vertex_betweenness(), TOLERANCE, "vertex"
        )
        assert_scores_equal(edge_scores, serial.edge_betweenness(), TOLERANCE, "edge")

    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_batched_stream_matches_serial(self, batch_size):
        graph = random_connected_graph(13, 0.15, seed=41)
        updates = random_update_sequence(graph, 8, seed=42)
        serial = serial_reference(graph, updates)
        with ShardCoordinator(graph, num_workers=2) as cluster:
            cluster.process_stream(updates, batch_size=batch_size)
            vertex_scores, edge_scores = cluster.betweenness()
        assert_scores_equal(vertex_scores, serial.vertex_betweenness(), TOLERANCE)
        assert_scores_equal(edge_scores, serial.edge_betweenness(), TOLERANCE)

    def test_disk_store_workers(self):
        graph = random_connected_graph(10, 0.2, seed=51)
        updates = random_update_sequence(graph, 5, seed=52)
        serial = serial_reference(graph, updates)
        with ShardCoordinator(graph, num_workers=2, store="disk") as cluster:
            cluster.process_stream(updates, batch_size=2)
            vertex_scores, _ = cluster.betweenness()
        assert_scores_equal(vertex_scores, serial.vertex_betweenness(), TOLERANCE)

    def test_store_file_seeded_workers(self, tmp_path):
        graph = random_connected_graph(12, 0.15, seed=61)
        durable = DiskBDStore(graph.vertex_list(), path=tmp_path / "bd.bin")
        IncrementalBetweenness(graph, store=durable)
        durable.close()
        updates = random_update_sequence(graph, 6, seed=62)
        serial = serial_reference(graph, updates)
        with ShardCoordinator(
            graph, num_workers=2, source_store_path=tmp_path / "bd.bin"
        ) as cluster:
            cluster.process_stream(updates, batch_size=3)
            vertex_scores, edge_scores = cluster.betweenness()
        assert_scores_equal(vertex_scores, serial.vertex_betweenness(), TOLERANCE)
        assert_scores_equal(edge_scores, serial.edge_betweenness(), TOLERANCE)

    def test_new_vertices_assigned_to_exactly_one_worker(self, cycle6):
        with ShardCoordinator(cycle6, num_workers=3) as cluster:
            cluster.apply_batch(
                [EdgeUpdate.addition(0, 99), EdgeUpdate.addition(99, 3)]
            )
            vertex_scores, _ = cluster.betweenness()
        reference = brandes_betweenness(cluster.graph)
        assert_scores_equal(vertex_scores, reference.vertex_scores, TOLERANCE)


class TestOneSidedCollect:
    def test_side_reads_equal_the_both_sides_merge(self, monkeypatch):
        """Reads are the last batch's fold: no side sends a worker round."""
        graph = random_connected_graph(12, 0.2, seed=81)
        with ShardCoordinator(graph, num_workers=2) as cluster:
            cluster.apply_batch([EdgeUpdate.addition(0, 99)])
            both = cluster.betweenness()
            rounds = []

            def spy(message_for, expected):
                rounds.append(expected)
                raise AssertionError("a read sent a worker round")

            monkeypatch.setattr(cluster, "_broadcast", spy)
            assert cluster.vertex_betweenness() == both[0]
            assert cluster.edge_betweenness() == both[1]
        assert rounds == []


class TestExecutorBehaviour:
    def test_reports_worker_timings(self, cycle6):
        with ShardCoordinator(cycle6, num_workers=2) as cluster:
            report = cluster.add_edge(0, 3)
        assert len(report.worker_seconds) == 2
        assert len(report.worker_cpu_seconds) == 2
        assert report.wall_clock_seconds <= report.cumulative_seconds + 1e-9
        assert report.elapsed_seconds > 0.0
        assert report.num_updates == 1

    def test_partitions_cover_all_sources(self):
        graph = random_connected_graph(11, 0.2, seed=71)
        with ShardCoordinator(graph, num_workers=3) as cluster:
            covered = sorted(v for p in cluster.partitions for v in p)
        assert covered == sorted(graph.vertices())

    def test_init_seconds_reported(self, cycle6):
        with ShardCoordinator(cycle6, num_workers=2) as cluster:
            assert len(cluster.init_seconds) == 2
            assert cluster.init_wall_clock_seconds >= max(cluster.init_seconds) - 1e-9

    def test_invalid_worker_count(self, cycle6):
        with pytest.raises(ConfigurationError):
            ShardCoordinator(cycle6, num_workers=0)

    def test_invalid_store_kind(self, cycle6):
        with pytest.raises(ConfigurationError):
            ShardCoordinator(cycle6, num_workers=1, store="papyrus")

    def test_invalid_update_raises_and_cluster_survives(self, cycle6):
        with ShardCoordinator(cycle6, num_workers=2) as cluster:
            with pytest.raises(UpdateError):
                cluster.add_edge(0, 1)  # already present
            # The driver rejected the update before sending; still usable.
            cluster.add_edge(0, 3)
            vertex_scores, _ = cluster.betweenness()
        reference = brandes_betweenness(cluster.graph)
        assert_scores_equal(vertex_scores, reference.vertex_scores, TOLERANCE)

    def test_empty_batch(self, cycle6):
        with ShardCoordinator(cycle6, num_workers=2) as cluster:
            report = cluster.apply_batch([])
        assert report.num_updates == 0

    def test_close_is_idempotent_and_blocks_use(self, cycle6):
        cluster = ShardCoordinator(cycle6, num_workers=2)
        cluster.close()
        cluster.close()
        with pytest.raises(ConfigurationError):
            cluster.add_edge(0, 3)


class TestExecutorFaultDetection:
    """The driver must never hang on a dead worker (a blocking
    ``Pipe.recv`` would wait forever).  Without a shard root there is no
    per-partition durability, so a death is terminal — but it must surface
    as :exc:`WorkerFailedError` within moments, with the cluster torn
    down."""

    def test_sigkilled_worker_raises_instead_of_hanging(self):
        import os
        import signal

        from repro.exceptions import WorkerFailedError

        graph = random_connected_graph(12, 0.2, seed=81)
        cluster = ShardCoordinator(graph, num_workers=2)
        try:
            cluster.add_edge(*_absent_edge(graph))
            os.kill(cluster._handles[1].process.pid, signal.SIGKILL)
            cluster._handles[1].process.join(timeout=10.0)
            with pytest.raises(WorkerFailedError, match="shard 1"):
                cluster.add_edge(*_absent_edge(cluster.graph))
        finally:
            cluster.close()
        # The failure closed the cluster; further use is refused, not hung,
        # and the last fold is not served.
        with pytest.raises(ConfigurationError):
            cluster.add_edge(0, 1)
        with pytest.raises(ConfigurationError):
            cluster.betweenness()

    def test_recv_timeout_bounds_the_wait(self, cycle6):
        """A generous timeout never fires for a healthy worker."""
        with ShardCoordinator(cycle6, num_workers=2, recv_timeout=30.0) as cluster:
            report = cluster.add_edge(0, 3)
        assert report.num_updates == 1


def _absent_edge(graph):
    vertices = sorted(graph.vertices())
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if not graph.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


def test_there_is_exactly_one_worker_runtime():
    """One ``Process`` target and one class that spawns it in the whole
    ``repro`` package, and no process pool anywhere — a second
    multi-partition engine cannot grow back beside the coordinator without
    failing here."""
    import ast
    from pathlib import Path

    import repro

    targets, spawners, pools = set(), set(), set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): scope.name
            for scope in ast.walk(tree)
            if isinstance(scope, ast.ClassDef)
            for node in ast.walk(scope)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            where = owner.get(id(node), f"<module {path.name}>")
            if name in ("Pool", "ProcessPoolExecutor"):
                pools.add(f"{path.name}: {where}")
            elif name == "Process":
                spawners.add(where)
                targets.update(
                    ast.unparse(keyword.value)
                    for keyword in node.keywords
                    if keyword.arg == "target"
                )
    assert pools == set()
    assert targets == {"_worker_main"}
    assert spawners == {"ShardCoordinator"}


def test_executors_are_serial_process_and_shard():
    """Serial, or the worker runtime with or without a shard root."""
    assert EXECUTORS == ("serial", "process", "shard")
