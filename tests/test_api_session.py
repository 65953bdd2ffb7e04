"""The session facade: equivalence matrix, events, subscribers, lifecycle."""

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
from repro.exceptions import ConfigurationError
from repro.graph import Graph
from repro.storage import InMemoryBDStore
from repro.storage.buffers import active_segments, shm_available

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

    def test_mapreduce_executor_matches(self, references):
        graph = build_graph(False)
        config = BetweennessConfig(executor="mapreduce", workers=3)
        expected_vertex, _ = references[(False, 1)]
        with BetweennessSession(graph, config) as session:
            for _ in session.stream(update_stream(graph)):
                pass
            assert_scores_equal(
                session.vertex_betweenness(), expected_vertex, MERGE_TOLERANCE
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


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
class TestSharedMemoryMatrix:
    """{process, shard} × {directed, undirected} × {shm on, off}.

    The zero-copy data plane is a *wire-format* change only: with
    ``shared_memory=True`` the same executor must produce scores ``==``
    its own pickled-dispatch run — not merely close — and must leave
    ``/dev/shm`` empty afterwards.
    """

    def _config(self, executor, directed, shared_memory, tmp_path, workers=2):
        if executor == "process":
            return BetweennessConfig(
                backend="arrays",
                store="arrays://",
                batch_size=2,
                directed=directed,
                executor="process",
                workers=workers,
                shared_memory=shared_memory,
            )
        root = tmp_path / f"root-{'shm' if shared_memory else 'heap'}"
        return BetweennessConfig(
            directed=directed,
            batch_size=2,
            executor="shard",
            workers=workers,
            store=f"shard://{root}?shards={workers}",
            shared_memory=shared_memory,
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
    def test_shm_run_equals_heap_run_bit_identically(
        self, tmp_path, executor, directed, references
    ):
        graph = build_graph(directed)
        heap = self._run(graph, self._config(executor, directed, False, tmp_path))
        shm = self._run(graph, self._config(executor, directed, True, tmp_path))
        assert shm[0] == heap[0]
        assert shm[1] == heap[1]
        assert active_segments() == []
        # And both agree with the serial reference within merge tolerance.
        expected_vertex, expected_edge = references[(directed, 2)]
        assert_scores_equal(shm[0], expected_vertex, MERGE_TOLERANCE, "vertex")
        assert_scores_equal(shm[1], expected_edge, MERGE_TOLERANCE, "edge")

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @pytest.mark.parametrize("shared_memory", [False, True], ids=["heap", "shm"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_process_run_equals_shard_run_bit_identically(
        self, tmp_path, workers, shared_memory, directed
    ):
        """One runtime: the same partitions, the same adoption of births and
        the same reduce order, so a shard root changes durability only —
        never a single bit of a score.  23 vertices split unevenly over 2
        and 3 workers, so least-loaded adoption and any other policy part
        ways at the very first birth."""
        graph = build_graph(directed, vertices=23)
        stream = mixed_stream(graph, length=30)  # additions, removals, births
        process = self._run(
            graph,
            self._config("process", directed, shared_memory, tmp_path, workers),
            stream,
        )
        shard = self._run(
            graph,
            self._config("shard", directed, shared_memory, tmp_path, workers),
            stream,
        )
        assert process[0] == shard[0]
        assert process[1] == shard[1]
        assert active_segments() == []

    def test_uri_param_is_the_same_switch(self, tmp_path):
        graph = build_graph(False)
        flagged = self._run(graph, self._config("process", False, True, tmp_path))
        via_uri = self._run(
            graph,
            BetweennessConfig(
                backend="arrays",
                store="arrays://?shm=1",
                batch_size=2,
                executor="process",
                workers=2,
            ),
        )
        assert via_uri == flagged
        assert active_segments() == []


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
        assert events[1].batch_index == 0
        assert events[1].updates[0].is_removal

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
