"""The session facade: equivalence matrix, events, subscribers, lifecycle."""

import dataclasses
import itertools

import pytest

from repro.api import (
    BatchApplied,
    BetweennessConfig,
    BetweennessSession,
    BootstrapCompleted,
    CheckpointWritten,
    SessionClosed,
    SessionSubscriber,
    UpdateApplied,
    open_session,
    resume_session,
)
from repro.algorithms import brandes_betweenness
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.exceptions import ConfigurationError, SubscriberError
from repro.graph import Graph
from repro.parallel import ParallelBatchReport
from repro.storage import DiskBDStore, InMemoryBDStore
from repro.storage.buffers import active_segments
from repro.storage.shard import load_manifest

from tests.helpers import assert_scores_equal, random_connected_graph
from tests.test_shard_chaos import update_stream as mixed_stream

#: Exactly zero tolerance — serial pipelines must be bit-identical.  The
#: process executor reduces partial scores in a *different grouping* than
#: the flat serial sum (per-partition subtotals folded in stable partition
#: order — see merge_partial_scores), so it differs from the serial
#: reference by float re-association error only: ~1e-14 relative, which for
#: these graphs is comfortably below 1e-12 absolute.  The merge itself is
#: deterministic, so anything past re-association error is a real bug.
EXACT = 0.0
MERGE_TOLERANCE = 1e-12


def build_graph(directed: bool, vertices: int = 18) -> Graph:
    graph = random_connected_graph(vertices, 0.18, seed=11)
    if not directed:
        return graph
    oriented = Graph(directed=True)
    for vertex in graph.vertex_list():
        oriented.add_vertex(vertex)
    for u, v in graph.edges():
        oriented.add_edge(u, v)
        if (u + v) % 3 == 0:  # some reciprocal pairs
            oriented.add_edge(v, u)
    return oriented


def update_stream(graph: Graph):
    edges = list(graph.edges())
    return [
        EdgeUpdate.addition(0, 100),       # vertex birth
        EdgeUpdate.addition(100, 5),
        EdgeUpdate.removal(*edges[0]),
        EdgeUpdate.addition(*edges[0]),    # remove-then-readd
        EdgeUpdate.removal(*edges[3]),
        EdgeUpdate.addition(2, 101),       # second birth
    ]


def reference_scores(directed: bool, batch_size: int):
    """The pre-redesign call path: serial dicts framework, same batching.

    Bit-identity is defined against the old call path under the *same*
    batching granularity — different batch sizes interleave the per-source
    float accumulations differently (within 1e-9), exactly as the batched
    pipeline always has.
    """
    graph = build_graph(directed)
    framework = IncrementalBetweenness(graph)
    stream = update_stream(graph)
    if batch_size == 1:
        for update in stream:
            framework.apply(update)
    else:
        for start in range(0, len(stream), batch_size):
            framework.apply_updates(stream[start : start + batch_size])
    return framework.vertex_betweenness(), framework.edge_betweenness()


@pytest.fixture(scope="module")
def references():
    return {
        (directed, batch_size): reference_scores(directed, batch_size)
        for directed in (False, True)
        for batch_size in (1, 2, 3)
    }


class TestEquivalenceMatrix:
    """{dicts, arrays} × {memory, arrays, disk} × executions × orientations."""

    @pytest.mark.parametrize(
        "backend, store, batch_size, directed",
        [
            combo
            for combo in itertools.product(
                ("dicts", "arrays"),
                ("memory://", "arrays://", "disk://"),
                (1, 3),                     # serial and batched pipelines
                (False, True),
            )
        ],
    )
    def test_serial_pipelines_bit_identical(
        self, references, backend, store, batch_size, directed
    ):
        graph = build_graph(directed)
        config = BetweennessConfig(
            backend=backend, store=store, batch_size=batch_size, directed=directed
        )
        expected_vertex, expected_edge = references[(directed, batch_size)]
        with BetweennessSession(graph, config) as session:
            for _ in session.stream(update_stream(graph)):
                pass
            assert_scores_equal(
                session.vertex_betweenness(), expected_vertex, EXACT, "vertex"
            )
            assert_scores_equal(
                session.edge_betweenness(), expected_edge, EXACT, "edge"
            )
            # Exact key sets too: an edge's score entry exists iff the edge does.
            assert set(session.edge_betweenness()) == set(expected_edge)

    @pytest.mark.parametrize(
        "backend, store, directed",
        list(itertools.product(("dicts", "arrays"), ("memory://", "disk://"), (False, True))),
    )
    def test_process_parallel_matches(self, references, backend, store, directed):
        graph = build_graph(directed)
        config = BetweennessConfig(
            backend=backend,
            store=store,
            batch_size=2,
            directed=directed,
            executor="process",
            workers=2,
        )
        expected_vertex, expected_edge = references[(directed, 2)]
        with BetweennessSession(graph, config) as session:
            for _ in session.stream(update_stream(graph)):
                pass
            assert_scores_equal(
                session.vertex_betweenness(), expected_vertex, MERGE_TOLERANCE,
                "vertex",
            )
            assert_scores_equal(
                session.edge_betweenness(), expected_edge, MERGE_TOLERANCE, "edge"
            )

    def test_matches_from_scratch_brandes(self):
        graph = build_graph(False)
        with open_session(graph, backend="arrays", batch_size=2) as session:
            for _ in session.stream(update_stream(graph)):
                pass
            reference = brandes_betweenness(session.graph)
            assert_scores_equal(
                session.vertex_betweenness(), reference.vertex_scores, 1e-8
            )


class TestWorkerRuntimeMatrix:
    """{process, shard} × {directed, undirected} on the one worker runtime.

    Both executors send every batch as one pickled message; each must match
    the serial reference within merge tolerance, and they must match each
    other ``==``, leaving ``/dev/shm`` empty afterwards.
    """

    def _config(self, executor, directed, tmp_path, workers=2):
        if executor == "process":
            return BetweennessConfig(
                backend="arrays",
                store="arrays://",
                batch_size=2,
                directed=directed,
                executor="process",
                workers=workers,
            )
        return BetweennessConfig(
            directed=directed,
            batch_size=2,
            executor="shard",
            workers=workers,
            store=f"shard://{tmp_path / 'root'}?shards={workers}",
        )

    def _run(self, graph, config, stream=None):
        with BetweennessSession(graph, config) as session:
            for _ in session.stream(stream or update_stream(graph)):
                pass
            return session.vertex_betweenness(), session.edge_betweenness()

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @pytest.mark.parametrize("executor", ["process", "shard"])
    def test_run_matches_serial_and_leaves_no_segment(
        self, tmp_path, executor, directed, references
    ):
        graph = build_graph(directed)
        vertex, edge = self._run(
            graph, self._config(executor, directed, tmp_path)
        )
        assert active_segments() == []
        expected_vertex, expected_edge = references[(directed, 2)]
        assert_scores_equal(vertex, expected_vertex, MERGE_TOLERANCE, "vertex")
        assert_scores_equal(edge, expected_edge, MERGE_TOLERANCE, "edge")

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_run_equals_shard_run_bit_identically(
        self, tmp_path, workers, directed
    ):
        """One runtime: the same partitions, the same adoption of births and
        the same reduce order, so a shard root changes durability only —
        never a single bit of a score.  23 vertices split unevenly over 2
        and 3 workers, so least-loaded adoption and any other policy part
        ways at the very first birth."""
        graph = build_graph(directed, vertices=23)
        stream = mixed_stream(graph, length=30)  # additions, removals, births
        process = self._run(
            graph, self._config("process", directed, tmp_path, workers), stream
        )
        shard = self._run(
            graph, self._config("shard", directed, tmp_path, workers), stream
        )
        assert process[0] == shard[0]
        assert process[1] == shard[1]
        assert active_segments() == []

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @pytest.mark.parametrize("executor", ["process", "shard"])
    @pytest.mark.parametrize(
        "relabel",
        [lambda v: v * 7 + 3, lambda v: f"v{v}", lambda v: (v, "x")],
        ids=["int", "str", "tuple"],
    )
    def test_any_hashable_label_crosses_the_worker_boundary(
        self, tmp_path, relabel, executor, directed
    ):
        """The graph reaches the workers as an adjacency payload and every
        batch as a pickled update list, and births add labels mid-stream:
        whatever the label type, the workers must hold the driver's exact
        graph and updates."""
        base = build_graph(directed)
        graph = Graph(directed=directed)
        for vertex in base.vertex_list():
            graph.add_vertex(relabel(vertex))
        for u, v in base.edges():
            graph.add_edge(relabel(u), relabel(v))
        stream = [
            (EdgeUpdate.addition if update.is_addition else EdgeUpdate.removal)(
                *map(relabel, update.endpoints)
            )
            for update in update_stream(base)
        ]
        serial = self._run(
            graph, BetweennessConfig(directed=directed, batch_size=2), stream
        )
        vertex, edge = self._run(
            graph, self._config(executor, directed, tmp_path), stream
        )
        assert active_segments() == []
        assert_scores_equal(vertex, serial[0], MERGE_TOLERANCE, "vertex")
        assert_scores_equal(edge, serial[1], MERGE_TOLERANCE, "edge")

    @pytest.mark.parametrize("executor", ["process", "shard"])
    def test_every_call_returns_the_runtime_report(self, tmp_path, executor):
        """apply() and apply_batch() return the runtime's one report for the
        whole call — one compute and one CPU time per worker — and the
        events carry that same object."""
        graph = build_graph(False)
        stream = update_stream(graph)
        events = []
        config = self._config(executor, False, tmp_path, workers=3)
        with BetweennessSession(graph, config, subscribers=[events.append]) as session:
            single = session.apply(stream[0])
            batch = session.apply_batch(stream[1:3])
        for report, size in ((single, 1), (batch, 2)):
            assert isinstance(report, ParallelBatchReport)
            assert report.num_updates == size
            assert len(report.worker_seconds) == 3
            assert len(report.worker_cpu_seconds) == 3
            assert min(report.worker_cpu_seconds) >= 0.0
        results = [
            event.result
            for event in events
            if isinstance(event, (UpdateApplied, BatchApplied))
        ]
        assert results[0] is single and results[1] is batch


class TestRecvTimeoutThreading:
    """config.recv_timeout must reach the executor that enforces it."""

    def test_reaches_process_executor(self, path5):
        config = BetweennessConfig(
            executor="process", workers=2, recv_timeout=30.0
        )
        with BetweennessSession(path5, config) as session:
            assert session._cluster._recv_timeout == 30.0

    def test_reaches_shard_coordinator(self, path5, tmp_path):
        config = BetweennessConfig(
            executor="shard",
            workers=2,
            store=f"shard://{tmp_path / 'root'}?shards=2",
            recv_timeout=45.0,
        )
        with BetweennessSession(path5, config) as session:
            assert session._cluster._recv_timeout == 45.0

    def test_defaults_to_wait_forever(self, path5):
        config = BetweennessConfig(executor="process", workers=2)
        with BetweennessSession(path5, config) as session:
            assert session._cluster._recv_timeout is None


class RecordingSubscriber(SessionSubscriber):
    def __init__(self):
        self.attached_to = None
        self.events = []

    def attach(self, session):
        self.attached_to = session

    def on_event(self, event):
        self.events.append(event)


class TestEventsAndSubscribers:
    def test_event_sequence_and_types(self, path5):
        events = []
        session = BetweennessSession(path5)
        session.subscribe(events.append)  # plain-callable subscriber
        session.apply(EdgeUpdate.addition(0, 4))
        session.apply_batch([EdgeUpdate.removal(0, 4), EdgeUpdate.addition(1, 3)])
        session.close()
        # Bootstrap fired before subscription; the rest arrive in order.
        assert [type(e) for e in events] == [UpdateApplied, BatchApplied, SessionClosed]
        sequences = [e.sequence for e in events]
        assert sequences == sorted(sequences)
        assert events[1].batch_index == 1  # apply() was batch 0
        assert events[1].updates[0].is_removal

    def test_update_applied_names_its_batch(self, path5):
        from repro.service.events import encode_event

        events = []
        with BetweennessSession(path5) as session:
            session.subscribe(events.append)
            session.apply(EdgeUpdate.addition(0, 4))
            session.apply_batch([EdgeUpdate.addition(1, 3)])
        update, batch = events[:2]
        assert isinstance(update, UpdateApplied) and update.batch_index == 0
        assert isinstance(batch, BatchApplied) and batch.batch_index == 1
        assert encode_event(update)["batch_index"] == 0
        assert encode_event(batch)["batch_index"] == 1

    def test_subscriber_object_receives_attach(self, path5):
        subscriber = RecordingSubscriber()
        with BetweennessSession(path5) as session:
            session.subscribe(subscriber)
            assert subscriber.attached_to is session
            session.apply(EdgeUpdate.addition(0, 2))
        assert [type(e) for e in subscriber.events] == [UpdateApplied, SessionClosed]

    def test_bootstrap_event_reaches_constructor_subscribers(self, path5):
        subscriber = RecordingSubscriber()
        with BetweennessSession(path5, subscribers=[subscriber]) as session:
            assert subscriber.attached_to is session
        assert isinstance(subscriber.events[0], BootstrapCompleted)
        assert subscriber.events[0].num_vertices == 5
        assert subscriber.events[0].sequence == 0

    def test_stream_yields_batch_events_despite_nested_emits(self, path5, tmp_path):
        """A subscriber emitting events (e.g. checkpointing) while handling
        BatchApplied must not corrupt what stream() yields."""
        with BetweennessSession(path5) as session:
            session.subscribe(
                lambda e: session.checkpoint(tmp_path / "nested.bin")
                if isinstance(e, BatchApplied)
                else None
            )
            stream = [EdgeUpdate.addition(0, 2), EdgeUpdate.addition(0, 3)]
            events = list(session.stream(stream, batch_size=1))
        assert [type(e) for e in events] == [BatchApplied, BatchApplied]
        assert [e.batch_index for e in events] == [0, 1]
        assert (tmp_path / "nested.bin").exists()

    def test_unsubscribe_stops_delivery(self, path5):
        events = []
        with BetweennessSession(path5) as session:
            session.subscribe(events.append)
            session.apply(EdgeUpdate.addition(0, 2))
            session.unsubscribe(events.append)
            session.apply(EdgeUpdate.removal(0, 2))
        assert len([e for e in events if isinstance(e, UpdateApplied)]) == 1

    def test_invalid_subscriber_rejected(self, path5):
        with BetweennessSession(path5) as session:
            with pytest.raises(ConfigurationError):
                session.subscribe(object())


class TestSessionSurface:
    def test_top_k_and_snapshot(self, path5):
        with BetweennessSession(path5) as session:
            top = session.top_k(2)
            assert len(top) == 2
            full = sorted(
                session.vertex_betweenness().items(),
                key=lambda item: (-item[1], repr(item[0])),
            )
            assert list(top) == full[:2]
            snap = session.snapshot()
            assert snap.num_vertices == 5
            assert snap.vertex_scores == session.vertex_betweenness()
            assert snap.top_vertices(2) == top
            with pytest.raises(ConfigurationError):
                session.top_k(0)

    @pytest.mark.parametrize("backend", ["dicts", "arrays"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_top_k_equals_the_full_sort(self, backend, directed):
        graph = random_connected_graph(12, 0.3, seed=5)
        if directed:
            graph = Graph.from_edges(
                [e for u, v in graph.edges() for e in ((u, v), (v, u))][::3],
                directed=True,
            )
        config = BetweennessConfig(backend=backend, directed=directed)
        with BetweennessSession(graph, config) as session:
            session.apply_batch([EdgeUpdate.addition(0, 100)])
            for edges, scores in (
                (False, session.vertex_betweenness()),
                (True, session.edge_betweenness()),
            ):
                full = sorted(
                    scores.items(), key=lambda item: (-item[1], repr(item[0]))
                )
                n = len(full)
                for k in (1, n - 1, n, n + 5):
                    top = session.top_k(k, edges=edges)
                    assert list(top) == full[:k]
                    assert top.batches_applied == 1

    def test_checkpoint_policy_writes_periodically(self, path5, tmp_path):
        ck = tmp_path / "auto.bin"
        config = BetweennessConfig(
            batch_size=1, checkpoint_path=str(ck), checkpoint_every=2
        )
        checkpoints = []
        with BetweennessSession(path5, config) as session:
            session.subscribe(
                lambda e: checkpoints.append(e)
                if isinstance(e, CheckpointWritten)
                else None
            )
            stream = [
                EdgeUpdate.addition(0, 2),
                EdgeUpdate.addition(0, 3),
                EdgeUpdate.addition(0, 4),
                EdgeUpdate.addition(1, 3),
            ]
            for _ in session.stream(stream):
                pass
        assert len(checkpoints) == 2  # after batches 2 and 4
        assert ck.exists()

    def test_config_graph_orientation_mismatch(self):
        with pytest.raises(ConfigurationError):
            BetweennessSession(Graph(directed=True), BetweennessConfig())

    def test_closed_session_refuses_work(self, path5):
        session = BetweennessSession(path5)
        session.close()
        session.close()  # idempotent
        with pytest.raises(ConfigurationError):
            session.apply(EdgeUpdate.addition(0, 2))

    def test_checkpoint_needs_serial_executor(self, path5, tmp_path):
        config = BetweennessConfig(executor="process", workers=2)
        with BetweennessSession(path5, config) as session:
            with pytest.raises(ConfigurationError):
                session.checkpoint(tmp_path / "ck.bin")
            with pytest.raises(ConfigurationError):
                session.framework

    def test_checkpoint_needs_a_path(self, path5):
        with BetweennessSession(path5) as session:
            with pytest.raises(ConfigurationError):
                session.checkpoint()

    def test_explicit_store_is_serial_only(self, path5):
        config = BetweennessConfig(executor="process", workers=2)
        with pytest.raises(ConfigurationError):
            BetweennessSession(path5, config, store=InMemoryBDStore())

    def test_explicit_store_overrides_uri(self, path5):
        store = InMemoryBDStore()
        with BetweennessSession(path5, store=store) as session:
            assert session.framework.store is store

    def test_open_session_overrides(self, path5):
        with open_session(path5, batch_size=4) as session:
            assert session.config.batch_size == 4
        base = BetweennessConfig(batch_size=2)
        with open_session(path5, base, batch_size=8) as session:
            assert session.config.batch_size == 8

    def test_resumed_session_keeps_streaming(self, path5, tmp_path):
        ck = tmp_path / "ck.bin"
        with open_session(path5, checkpoint_path=str(ck)) as session:
            session.apply(EdgeUpdate.addition(0, 3))
            session.checkpoint()
        resumed = resume_session(ck)
        try:
            resumed.apply(EdgeUpdate.addition(0, 4))
            fresh = IncrementalBetweenness(resumed.graph)
            assert_scores_equal(
                resumed.vertex_betweenness(), fresh.vertex_betweenness(), EXACT
            )
        finally:
            resumed.close()

    def test_sidecar_naming_buffered_disk_still_resumes(self, path5, tmp_path):
        # Sidecars written while disk:// still had a buffered mode may embed
        # ``mmap=false``.  The store file has one layout either way and
        # resume reopens it by path, so such a sidecar keeps loading.
        store_path, ck = tmp_path / "bd.bin", tmp_path / "ck.bin"
        config = BetweennessConfig(
            backend="arrays",
            store=f"disk://{store_path}?mmap=false",
            checkpoint_path=str(ck),
        )
        framework = IncrementalBetweenness(
            path5.copy(),
            store=DiskBDStore(path5.vertex_list(), path=store_path),
            backend="arrays",
        )
        with BetweennessSession.from_framework(framework, config) as session:
            session.apply(EdgeUpdate.addition(0, 3))
            session.checkpoint()
        oracle = IncrementalBetweenness(path5.copy(), backend="dicts")
        oracle.add_edge(0, 3)
        resumed = resume_session(ck)
        try:
            assert resumed.config.store.endswith("?mmap=false")
            assert resumed.vertex_betweenness() == oracle.vertex_betweenness()
            resumed.apply(EdgeUpdate.addition(0, 4))
            oracle.add_edge(0, 4)
            assert resumed.vertex_betweenness() == oracle.vertex_betweenness()
            assert resumed.edge_betweenness() == oracle.edge_betweenness()
        finally:
            resumed.close()


class TestCheckpointPolicy:
    """One cadence owner: a session with ``checkpoint_every`` checkpoints
    at birth, after every batch on the cadence, and at close when behind."""

    UPDATES = [
        EdgeUpdate.addition(0, 2),
        EdgeUpdate.addition(0, 3),
        EdgeUpdate.addition(0, 4),
        EdgeUpdate.addition(1, 3),
    ]

    @staticmethod
    def _policy(tmp_path, every=2):
        return BetweennessConfig(
            checkpoint_path=str(tmp_path / "ck.bin"), checkpoint_every=every
        )

    def test_a_session_with_a_policy_writes_its_birth_checkpoint(
        self, path5, tmp_path
    ):
        subscriber = RecordingSubscriber()
        config = self._policy(tmp_path)
        with BetweennessSession(path5, config, subscribers=[subscriber]) as session:
            assert (tmp_path / "ck.bin").exists()
            assert [type(e) for e in subscriber.events] == [
                BootstrapCompleted,
                CheckpointWritten,
            ]
            assert session.durable_batches == session.batches_applied == 0
        # Resumed from a checkpoint, a session writes no birth checkpoint.
        before = (tmp_path / "ck.bin").stat().st_mtime_ns
        resumed = resume_session(tmp_path / "ck.bin")
        try:
            assert resumed.config.checkpoint_every == 2
            assert (tmp_path / "ck.bin").stat().st_mtime_ns == before
        finally:
            resumed.close()

    def test_apply_batch_checkpoints_on_the_cadence(self, path5, tmp_path):
        written, durable = [], []
        with BetweennessSession(path5, self._policy(tmp_path)) as session:
            session.subscribe(
                lambda e: written.append(session.batches_applied)
                if isinstance(e, CheckpointWritten)
                else None
            )
            for update in self.UPDATES:
                session.apply_batch([update])
                durable.append(session.durable_batches)
        assert written == [2, 4]
        assert durable == [0, 2, 2, 4]

    def test_apply_counts_toward_the_cadence(self, path5, tmp_path):
        with BetweennessSession(path5, self._policy(tmp_path)) as session:
            session.apply(self.UPDATES[0])
            assert (session.batches_applied, session.durable_batches) == (1, 0)
            session.apply(self.UPDATES[1])
            assert (session.batches_applied, session.durable_batches) == (2, 2)

    def test_close_writes_nothing_when_the_checkpoint_is_current(
        self, path5, tmp_path
    ):
        events = []
        session = BetweennessSession(path5, self._policy(tmp_path))
        session.subscribe(events.append)
        session.apply_batch(self.UPDATES[:1])
        session.apply_batch(self.UPDATES[1:2])
        sidecar = (tmp_path / "ck.bin").read_bytes()
        session.close()
        assert [type(e) for e in events] == [
            BatchApplied,
            BatchApplied,
            CheckpointWritten,
            SessionClosed,
        ]
        assert (tmp_path / "ck.bin").read_bytes() == sidecar

    def test_close_writes_the_tail_checkpoint(self, path5, tmp_path):
        events = []
        session = BetweennessSession(path5, self._policy(tmp_path, every=3))
        session.subscribe(events.append)
        session.apply_batch(self.UPDATES[:1])
        scores = session.vertex_betweenness()
        session.close()
        assert [type(e) for e in events] == [
            BatchApplied,
            CheckpointWritten,
            SessionClosed,
        ]
        resumed = resume_session(tmp_path / "ck.bin")
        try:
            assert resumed.vertex_betweenness() == scores
        finally:
            resumed.close()

    def test_a_failed_tail_checkpoint_raises_after_the_release(
        self, path5, tmp_path
    ):
        home = tmp_path / "home"
        home.mkdir()
        config = BetweennessConfig(
            checkpoint_path=str(home / "ck.bin"), checkpoint_every=3
        )
        session = BetweennessSession(path5, config)
        session.apply_batch(self.UPDATES[:1])
        (home / "ck.bin").unlink()
        home.rmdir()
        with pytest.raises(OSError):
            session.close()
        assert session.closed
        session.close()  # idempotent: nothing left to release or raise

    def test_a_subscriber_error_does_not_skip_a_due_checkpoint(
        self, path5, tmp_path
    ):
        def failing(event):
            if isinstance(event, BatchApplied):
                raise RuntimeError("subscriber bug")

        with BetweennessSession(path5, self._policy(tmp_path, every=1)) as session:
            session.subscribe(failing)
            with pytest.raises(SubscriberError):
                session.apply_batch(self.UPDATES[:1])
            assert session.durable_batches == session.batches_applied == 1
            scores = session.vertex_betweenness()
        resumed = resume_session(tmp_path / "ck.bin")
        try:
            assert resumed.graph.has_edge(0, 2)
            assert resumed.vertex_betweenness() == scores
        finally:
            resumed.close()

    def test_process_sessions_have_nothing_durable(self, path5):
        config = BetweennessConfig(executor="process", workers=2)
        with BetweennessSession(path5, config) as session:
            session.apply_batch(self.UPDATES[:1])
            assert (session.batches_applied, session.durable_batches) == (1, 0)


class TestBatchCounting:
    """``apply`` is a batch of one for every counter, serial and shard."""

    UPDATES = TestCheckpointPolicy.UPDATES[:3]

    def test_serial_apply_counts_as_a_batch(self, path5, tmp_path):
        ck = tmp_path / "ck.bin"
        with open_session(path5, checkpoint_path=str(ck)) as session:
            for update in self.UPDATES:
                session.apply(update)
            assert session.batches_applied == 3
            assert session.top_k(1).batches_applied == 3
            session.checkpoint()
            assert session.durable_batches == 3

    def test_shard_apply_counts_like_the_coordinator(self, path5, tmp_path):
        root = tmp_path / "root"
        config = BetweennessConfig(
            executor="shard",
            workers=2,
            store=f"shard://{root}?shards=2&checkpoint_every=2",
        )
        with BetweennessSession(path5, config) as session:
            for update in self.UPDATES:
                session.apply(update)
            cursor = session.engine.batch_cursor
            assert session.batches_applied == cursor == 3
            # The round after the second apply is the newest checkpoint.
            assert session.durable_batches == 2
        resumed = resume_session(root)
        try:
            # close() ran the final round at the cursor.
            assert resumed.batches_applied == resumed.engine.batch_cursor == 3
            assert resumed.durable_batches == 3
            resumed.apply(EdgeUpdate.addition(1, 3))
            assert resumed.batches_applied == resumed.engine.batch_cursor == 4
        finally:
            resumed.close()


class TestResumedSerialCount:
    """A serial sidecar records the session's batch count, and a resumed
    session counts on from it, as a shard root's manifest cursor does."""

    UPDATES = [EdgeUpdate.addition(u, v) for u, v in [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)]]

    def _write_five(self, graph, ck):
        with open_session(graph, checkpoint_path=str(ck), checkpoint_every=2) as session:
            for update in self.UPDATES:
                session.apply_batch([update])
        # close() checkpointed batch 5, past the cadence's batch 4.
        assert load_checkpoint(ck).batch_cursor == 5

    def test_resume_continues_the_batch_count(self, path5, tmp_path):
        ck = tmp_path / "ck.bin"
        self._write_five(path5, ck)
        resumed = resume_session(ck)
        try:
            assert resumed.batches_applied == resumed.durable_batches == 5
            assert resumed.top_k(1).batches_applied == 5
            event = next(resumed.stream([EdgeUpdate.addition(2, 4)]))
            assert event.batch_index == 5
            assert resumed.batches_applied == 6
        finally:
            resumed.close()

    def test_a_sidecar_without_a_cursor_resumes_at_zero(self, path5, tmp_path):
        ck = tmp_path / "ck.bin"
        self._write_five(path5, ck)
        save_checkpoint(ck, dataclasses.replace(load_checkpoint(ck), batch_cursor=None))
        resumed = resume_session(ck)
        try:
            assert resumed.batches_applied == resumed.durable_batches == 0
            assert next(resumed.stream([EdgeUpdate.addition(2, 4)])).batch_index == 0
        finally:
            resumed.close()


    @pytest.mark.parametrize("disk", [False, True], ids=["ram", "disk"])
    @pytest.mark.parametrize("backend", ["dicts", "arrays"])
    def test_the_cadence_counts_on_from_the_resumed_batch(
        self, path5, tmp_path, backend, disk
    ):
        """Resumed at batch 5 with cadence 2, batch 6 is not durable and
        batch 7 is, as in the run that was never interrupted."""
        ck = tmp_path / "ck.bin"
        store = f"disk://{tmp_path / 'bd.bin'}" if disk else None
        tail = [EdgeUpdate.addition(2, 4), EdgeUpdate.removal(0, 1)]
        fields = dict(backend=backend, checkpoint_path=str(ck), checkpoint_every=2)
        if store is not None:
            fields["store"] = store
        with open_session(path5, **fields) as session:
            for update in self.UPDATES:
                session.apply_batch([update])
        with open_session(path5, backend=backend) as uninterrupted:
            for update in self.UPDATES + tail:
                uninterrupted.apply_batch([update])
            expected = uninterrupted.vertex_betweenness()
        resumed = resume_session(ck)
        try:
            assert resumed.config.backend == backend
            assert resumed.batches_applied == resumed.durable_batches == 5
            resumed.apply_batch([tail[0]])
            assert (resumed.batches_applied, resumed.durable_batches) == (6, 5)
            resumed.apply_batch([tail[1]])
            assert (resumed.batches_applied, resumed.durable_batches) == (7, 7)
            assert load_checkpoint(ck).batch_cursor == 7
            assert_scores_equal(resumed.vertex_betweenness(), expected)
        finally:
            resumed.close()


class TestMovedShardRoot:
    def test_a_moved_root_resumes_under_its_own_path(self, path5, tmp_path):
        first, moved = tmp_path / "a", tmp_path / "b"
        config = BetweennessConfig(
            executor="shard",
            workers=2,
            store=f"shard://{first}?shards=2&checkpoint_every=3",
        )
        with BetweennessSession(path5, config) as session:
            session.apply_batch([EdgeUpdate.addition(0, 2)])
        first.rename(moved)
        resumed = resume_session(moved)
        try:
            expected = f"shard://{moved.resolve()}?shards=2&checkpoint_every=3"
            assert resumed.config.store == expected
            resumed.apply_batch([EdgeUpdate.addition(0, 3)])
            resumed.checkpoint()
            assert load_manifest(moved).config["store"] == expected
        finally:
            resumed.close()
