"""Cluster sessions publish their scores at every batch boundary.

Every worker's ``ready`` and ``applied`` replies carry what changed in its
partial scores, and the coordinator patches its copies and folds them once
per batch.  These tests hold the fold to the reduce it replaces — after
every batch the published scores ``==`` :func:`merge_partial_scores` over
the partitions' own partials, computed in-process by an oracle that repeats
the coordinator's partitioning and adoptions — across births,
removed-then-re-added edges, a SIGKILLed worker, a resume from the shard
manifest and a sliding window of edges.  They also pin the read path: reads
never wait for an in-flight batch, and never serve a dead ensemble's last
boundary.
"""

import os
import signal
import threading
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.api import (
    BetweennessConfig,
    BetweennessSession,
    ShardRecovered,
    resume_session,
)
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.updates import UpdateKind, validate_batch
from repro.exceptions import ConfigurationError, WorkerFailedError
from repro.graph import Graph
from repro.parallel import ShardCoordinator
from repro.parallel.shards import (
    _KeyNumbering,
    _PartialFeed,
    _ScoreFold,
    merge_partial_scores,
)
from repro.storage.partition import partition_sources
from repro.storage.shard import ShardLayout, pick_shard

from tests.helpers import random_connected_graph

#: Three partitions, so the fold's summation order is observable.
WORKERS = 3
CHECKPOINT_EVERY = 2
add, remove = EdgeUpdate.addition, EdgeUpdate.removal


def build_graph(directed: bool) -> Graph:
    if not directed:
        return random_connected_graph(12, 0.2, seed=46)
    graph = Graph(directed=True)
    for vertex in range(10):  # a ring, so every vertex reaches every other
        graph.add_edge(vertex, (vertex + 1) % 10)
    for u, v in [(0, 5), (7, 2), (3, 8), (9, 4), (6, 1)]:
        graph.add_edge(u, v)
    return graph


def boundary_stream(graph: Graph):
    """Births, removals, and edges re-added in a later batch or the same one."""
    edges = graph.edge_list()
    e1, e2, e3 = edges[0], edges[len(edges) // 2], edges[-1]
    vertices = graph.vertex_list()
    absent = [
        (u, v) for u in vertices for v in vertices
        if u != v and not graph.has_edge(u, v)
        and (graph.directed or repr(u) < repr(v))
    ]
    a1, a2, a3 = absent[0], absent[len(absent) // 2], absent[-1]
    anchor, other = vertices[0], vertices[3]
    return [
        [add(anchor, 900), add(900, other)],
        [remove(*e1), add(*a1)],
        [add(*e1), remove(*e2)],
        [remove(*e3), add(*e3), add(other, 901)],
        [add(*e2), remove(*a1)],
        [add(*a2), remove(900, other)],
        [add(*a3), add(901, anchor)],
        [remove(*e1)],
    ]


class PartitionOracle:
    """The cluster's computation in-process: one restricted framework per
    partition, the coordinator's ``pick_shard`` adoptions, and the reduce
    the fold must equal."""

    def __init__(self, graph: Graph, backend: str, workers: int = WORKERS):
        partitions = partition_sources(graph.vertex_list(), workers)
        self.frameworks = [
            IncrementalBetweenness(graph, sources=list(p.sources), backend=backend)
            for p in partitions
        ]
        self.sizes = [len(p.sources) for p in partitions]
        self.driver = graph.copy()

    def apply(self, batch):
        adopt = [[] for _ in self.frameworks]
        for vertex in validate_batch(self.driver, batch):
            shard_id = pick_shard(self.sizes)
            adopt[shard_id].append(vertex)
            self.sizes[shard_id] += 1
        for framework, born in zip(self.frameworks, adopt):
            framework.apply_updates(batch, adopt=born or None)
        for update in batch:
            if update.kind is UpdateKind.ADDITION:
                self.driver.add_edge(*update.endpoints)
            else:
                self.driver.remove_edge(*update.endpoints)

    def merged(self):
        return (
            merge_partial_scores([f.vertex_betweenness() for f in self.frameworks]),
            merge_partial_scores([f.edge_betweenness() for f in self.frameworks]),
        )


def assert_published(session, oracle, batches):
    snapshot = session.snapshot()
    vertex, edge = oracle.merged()
    assert snapshot.batches_applied == batches
    assert dict(snapshot.vertex_scores) == vertex
    assert dict(snapshot.edge_scores) == edge
    assert snapshot.num_edges == oracle.driver.num_edges
    full = sorted(vertex.items(), key=lambda item: (-item[1], repr(item[0])))
    assert list(session.top_k(3)) == full[:3]


def cluster_config(executor, backend, directed, root):
    if executor == "process":
        return BetweennessConfig(
            executor="process", workers=WORKERS, backend=backend, directed=directed
        )
    return BetweennessConfig(
        executor="shard",
        workers=WORKERS,
        backend=backend,
        directed=directed,
        store=f"shard://{root}?shards={WORKERS}&checkpoint_every={CHECKPOINT_EVERY}",
    )


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("backend", ["dicts", "arrays"])
class TestPublishedBoundaries:
    @pytest.mark.parametrize("executor", ["process", "shard"])
    def test_every_boundary_equals_the_merge_of_the_partials(
        self, tmp_path, executor, backend, directed
    ):
        """A shard run also loses worker 1 to a SIGKILL before batch 3 (a
        replacement replays from its sidecar) and resumes from the manifest
        after batch 5."""
        graph = build_graph(directed)
        stream = boundary_stream(graph)
        oracle = PartitionOracle(graph, backend)
        root = tmp_path / "shards"
        events = []
        session = BetweennessSession(
            graph,
            cluster_config(executor, backend, directed, root),
            subscribers=[events.append],
        )
        try:
            assert_published(session, oracle, 0)
            for index, batch in enumerate(stream):
                if executor == "shard" and index == 3:
                    victim = session.engine._handles[1].process
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=10.0)
                if executor == "shard" and index == 6:
                    session.close()
                    session = resume_session(root)
                    assert_published(session, oracle, 6)
                session.apply_batch(batch)
                oracle.apply(batch)
                assert_published(session, oracle, index + 1)
        finally:
            session.close()
        recovered = [e.shard for e in events if isinstance(e, ShardRecovered)]
        assert recovered == ([1] if executor == "shard" else [])

    def test_chaos_kill_after_apply_keeps_every_fold_exact(
        self, tmp_path, backend, directed
    ):
        """The worst case: worker 0 dies with batch 4 applied but
        unacknowledged, and its replacement renumbers its edges."""
        graph = build_graph(directed)
        oracle = PartitionOracle(graph, backend)
        layout = ShardLayout(
            root=tmp_path / "shards",
            num_shards=WORKERS,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        events = []
        with ShardCoordinator(
            graph,
            layout,
            backend=backend,
            chaos={0: {"cursor": 4, "when": "after"}},
            notify=lambda kind, **fields: events.append(kind),
        ) as cluster:
            for batch in boundary_stream(graph):
                cluster.apply_batch(batch)
                oracle.apply(batch)
                assert cluster.betweenness() == oracle.merged()
        assert events == ["worker_failed", "shard_recovered"]


def two_component_graph() -> Graph:
    """A connected graph plus a separate path, so a batch on the path
    leaves every score of the larger part as it was."""
    graph = random_connected_graph(16, 0.15, seed=47)
    for vertex in range(100, 109):
        graph.add_edge(vertex, vertex + 1)
    return graph


def sliding_window(graph: Graph, batches: int):
    """Each batch adds two never-seen edges and removes the oldest two it
    added, alternating between the two components, so the graph stays the
    same size while the edges ever present keep growing."""
    window, used = [], set(graph.edge_list())
    for index in range(batches):
        part = [v for v in graph.vertex_list() if (v >= 100) == (index % 2 == 1)]
        fresh = [(u, v) for u in part for v in part if u < v and (u, v) not in used]
        batch = [add(*edge) for edge in fresh[:2]]
        used.update(fresh[:2])
        window.extend(fresh[:2])
        while len(window) > 4:
            batch.append(remove(*window.pop(0)))
        for update in batch:
            if update.kind is UpdateKind.ADDITION:
                graph.add_edge(*update.endpoints)
            else:
                graph.remove_edge(*update.endpoints)
        yield batch


@pytest.mark.parametrize("backend", ["dicts", "arrays"])
class TestChangeFeed:
    def test_folded_changes_equal_the_merge_and_forget_dead_keys(self, backend):
        """Worker feeds and the coordinator's folds in-process, every reply
        pickled as it crosses the pipe: each boundary equals the merge,
        a batch on the path sends only what it changed, and neither the
        dicts numbering nor the fold keeps every edge ever seen."""
        graph = two_component_graph()
        oracle = PartitionOracle(graph, backend)
        feeds = [_PartialFeed(framework) for framework in oracle.frameworks]
        folds = (_ScoreFold(WORKERS), _ScoreFold(WORKERS))

        def exchange(fresh):
            """Scores sent, summed over the workers and both sides."""
            sent = 0
            for shard_id, feed in enumerate(feeds):
                data = bytes(ForkingPickler.dumps(feed.next()))
                for fold, partial in zip(folds, ForkingPickler.loads(data)):
                    fold.take(shard_id, partial, fresh)
                    sent += len(partial[3])
                    if fresh:  # every entry is new: the whole column is smaller
                        assert partial[2] is None
            assert tuple(fold.fold().to_dict() for fold in folds) == oracle.merged()
            return sent

        assert exchange(fresh=True) > 0
        assert exchange(fresh=False) == 0  # nothing changed
        seen = set(graph.edge_list())
        sizes = {False: [], True: []}
        for index, batch in enumerate(sliding_window(graph.copy(), 30)):
            oracle.apply(batch)
            seen.update(u.endpoints for u in batch)
            sizes[index % 2 == 1].append(exchange(fresh=False))
        assert max(sizes[True]) < min(sizes[False]) / 2  # the path's batches
        live = oracle.driver.num_edges
        assert len(seen) > 2 * live
        assert len(folds[1]._keys) <= 2 * live
        if backend == "dicts":
            for feed in feeds:
                assert len(feed._numberings[1]._keys) <= live + 2

    def test_a_freed_number_is_reused_from_the_next_call_on(self, backend):
        numbering = _KeyNumbering()
        numbering.number({"a": 1.0, "b": 2.0, "c": 3.0})
        values, present, label = numbering.number({"a": 1.0, "c": 3.0, "d": 4.0})
        assert [label(3)] == ["d"] and present.tolist() == [True, False, True, True]
        values, present, label = numbering.number(
            {"a": 1.0, "c": 3.0, "d": 4.0, "e": 5.0}
        )
        assert label(1) == "e" and present is None
        assert values.tolist() == [1.0, 5.0, 3.0, 4.0]


class TestReplyBytes:
    def test_reply_bytes_count_every_reply_read_for_the_batch(self):
        graph = build_graph(directed=False)
        with ShardCoordinator(graph, num_workers=WORKERS, backend="arrays") as cluster:
            seen = []
            for handle in cluster._handles:
                receive = handle.connection.recv_bytes

                def counted(receive=receive):
                    data = receive()
                    seen.append(len(data))
                    return data

                handle.connection.recv_bytes = counted
            for batch in boundary_stream(graph)[:3]:
                del seen[:]
                report = cluster.apply_batch(batch)
                assert len(seen) == WORKERS
                assert report.reply_bytes == sum(seen)
                assert report.payload_bytes > 0


def test_a_failed_checkpoint_round_still_publishes_the_applied_batch(tmp_path):
    """Every worker applied the batch before the round failed, so the
    coordinator's scores name that boundary, as its cursor does."""
    graph = build_graph(directed=False)
    oracle = PartitionOracle(graph, "arrays")
    layout = ShardLayout(
        root=tmp_path / "shards", num_shards=WORKERS, checkpoint_every=1
    )
    with ShardCoordinator(graph, layout, backend="arrays") as cluster:

        def failing_round():
            raise OSError("disk full")

        cluster._checkpoint_round = failing_round
        batch = boundary_stream(graph)[1]
        with pytest.raises(OSError):
            cluster.apply_batch(batch)
        oracle.apply(batch)
        assert cluster.batch_cursor == 1
        assert cluster.betweenness() == oracle.merged()


@pytest.mark.parametrize("executor", ["process", "shard"])
class TestReadPath:
    def test_reads_during_a_held_batch_serve_the_previous_boundary(
        self, tmp_path, executor, monkeypatch
    ):
        """Worker 0 is SIGSTOPped, so the writer's batch cannot finish;
        reads in another thread still return at once, from boundary 1."""
        graph = build_graph(directed=False)
        stream = boundary_stream(graph)
        config = cluster_config(executor, "arrays", False, tmp_path / "shards")
        with BetweennessSession(graph, config) as session:
            session.apply_batch(stream[0])
            before = session.snapshot()
            cluster = session.engine
            in_flight = threading.Event()
            broadcast = cluster._broadcast

            def flagged(message_for, expected):
                in_flight.set()
                return broadcast(message_for, expected)

            monkeypatch.setattr(cluster, "_broadcast", flagged)
            held = cluster._handles[0].process.pid
            reads = {}

            def reader():
                reads["top"] = session.top_k(3)
                reads["snapshot"] = session.snapshot()
                reads["batches"] = session.batches_applied

            os.kill(held, signal.SIGSTOP)
            writer = threading.Thread(target=session.apply_batch, args=(stream[1],))
            try:
                writer.start()
                assert in_flight.wait(10.0)
                thread = threading.Thread(target=reader)
                thread.start()
                thread.join(2.0)
                assert not thread.is_alive(), "a read waited for the batch"
                assert writer.is_alive(), "the batch was not held"
            finally:
                os.kill(held, signal.SIGCONT)
                writer.join(30.0)
            assert reads["snapshot"] is before
            assert reads["batches"] == reads["top"].batches_applied == 1
            assert list(reads["top"]) == list(before.top_vertices(3))
            assert session.batches_applied == 2

    def test_reads_after_a_terminal_worker_failure_raise(self, tmp_path, executor):
        """A process pool's dead worker is terminal; so is a shard whose
        sidecar is gone.  Either way the pool closes, and reads refuse to
        serve its last boundary."""
        graph = build_graph(directed=False)
        stream = boundary_stream(graph)
        root = tmp_path / "shards"
        session = BetweennessSession(
            graph, cluster_config(executor, "arrays", False, root)
        )
        try:
            session.apply_batch(stream[0])
            if executor == "shard":
                for sidecar in root.glob("shard-*/checkpoint.bin"):
                    sidecar.unlink()
            victim = session.engine._handles[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            with pytest.raises((WorkerFailedError, ConfigurationError)):
                session.apply_batch(stream[1])
            assert session.engine.closed
            for read in (
                session.snapshot,
                session.top_k,
                session.vertex_betweenness,
                session.edge_betweenness,
            ):
                with pytest.raises(ConfigurationError, match="closed"):
                    read()
        finally:
            session.close()
