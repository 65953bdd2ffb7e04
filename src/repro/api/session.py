"""The unified session facade: one entry point for every execution mode.

:class:`BetweennessSession` is the single public way to run the system.  It
takes an initial graph plus a declarative
:class:`~repro.api.config.BetweennessConfig` and hides, behind one stable
surface, everything PRs 1–4 grew underneath: the serial framework (in
memory, columnar or out of core), the batched update pipeline and the one
multiprocessing runtime — bare under ``executor="process"``, fault tolerant
under ``executor="shard"`` + a ``shard://`` store URI.  Adding a new
backend, store or executor is a registry/config change — no call site ever
threads a new kwarg again.

The session is also *event-driven*: every update, batch, checkpoint and
shutdown is published to subscribers (:mod:`repro.api.events`), which is
how top-k monitoring and the online-replay deadline accounting are layered
on top without reimplementing the update loop.

Typical use::

    from repro import BetweennessConfig, BetweennessSession

    config = BetweennessConfig(backend="arrays", store="disk:///data/bd.bin",
                               batch_size=32, checkpoint_path="/data/ck.bin")
    with BetweennessSession(graph, config) as session:
        for event in session.stream(updates):
            print(event.batch_index, session.top_k(3))
        session.checkpoint()

    # later, a different process — no flags, the config travels inside:
    session = resume_session("/data/ck.bin")
"""

from __future__ import annotations

import threading
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.config import BetweennessConfig
from repro.api.events import (
    BatchApplied,
    BootstrapCompleted,
    CheckpointWritten,
    SessionClosed,
    SessionEvent,
    ShardRecovered,
    Subscriber,
    UpdateApplied,
    WorkerFailed,
)
from repro.core.checkpoint import load_checkpoint
from repro.core.framework import IncrementalBetweenness
from repro.core.kernel import ScoreColumn
from repro.core.updates import EdgeUpdate, batches
from repro.exceptions import (
    ConfigurationError,
    StorageError,
    StoreVersionError,
    SubscriberError,
)
from repro.graph.graph import Graph
from repro.parallel.shards import ShardCoordinator
from repro.storage.base import BDStore
from repro.storage.factory import create_store, parse_store_uri
from repro.storage.shard import ShardLayout, load_manifest
from repro.types import Edge, EdgeScores, Vertex, VertexScores

PathLike = Union[str, Path]


class Ranking(tuple):
    """``(item, score)`` pairs, best first, ranked at one batch boundary.

    A plain tuple to every caller; :attr:`batches_applied` names the
    boundary, so a reply can report the batch its ranking comes from.
    """

    def __new__(cls, pairs: Iterable[Tuple[Any, float]], batches_applied: int):
        ranking = super().__new__(cls, pairs)
        ranking.batches_applied = batches_applied
        return ranking

    def __getnewargs__(self):
        return tuple(self), self.batches_applied


class SessionSnapshot:
    """Immutable view of a session's scores at one batch boundary.

    Every session publishes one at every boundary (bootstrap, resume,
    ``apply``, ``apply_batch``) and every read uses the current one, so
    reads take no lock.  A serial session publishes its engine's score
    arrays; a process or shard session the coordinator's fold of the
    partials its workers' replies carried.  The score mappings are built
    from the published arrays on first use; rankings are cached per side.
    """

    __slots__ = (
        "batches_applied", "num_vertices", "num_edges", "_columns", "_ranked"
    )

    def __init__(
        self,
        batches_applied: int,
        num_vertices: int,
        num_edges: int,
        vertices: ScoreColumn,
        edges: ScoreColumn,
    ) -> None:
        self.batches_applied = batches_applied
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self._columns = (vertices, edges)
        self._ranked: List[Optional[Tuple[int, Ranking]]] = [None, None]

    @property
    def vertex_scores(self) -> MappingProxyType[Vertex, float]:
        """Read-only ``{vertex: score}`` of this boundary."""
        return self._columns[0].mapping()

    @property
    def edge_scores(self) -> MappingProxyType[Edge, float]:
        """Read-only ``{edge: score}`` of this boundary."""
        return self._columns[1].mapping()

    def top_vertices(self, k: int) -> Ranking:
        """The ``k`` highest-betweenness vertices of this snapshot."""
        return self._rank(k, edges=False)

    def top_edges(self, k: int) -> Ranking:
        """The ``k`` highest-betweenness edges of this snapshot."""
        return self._rank(k, edges=True)

    def _rank(self, k: int, edges: bool) -> Ranking:
        cached = self._ranked[edges]
        if cached is not None and cached[0] == k:
            return cached[1]
        ranking = Ranking(self._columns[edges].top_k(k), self.batches_applied)
        self._ranked[edges] = (k, ranking)
        return ranking


class BetweennessSession:
    """Facade over every execution mode, driven by one declarative config.

    Parameters
    ----------
    graph:
        Initial graph.  Its orientation must match ``config.directed``.
    config:
        The declarative configuration; defaults to
        ``BetweennessConfig.for_graph(graph)`` (serial, in-memory, dicts).
    store:
        Escape hatch for callers that already hold a live
        :class:`~repro.storage.base.BDStore` (out-of-core harnesses and
        some tests); overrides the config's store URI.  Serial executor
        only.

    **Thread-safety contract.**  Every state transition (``apply``,
    ``apply_batch``, ``checkpoint``, ``close``) runs under one internal
    re-entrant lock.  Reads (``vertex_betweenness``, ``edge_betweenness``,
    ``top_k``, ``snapshot``, ``batches_applied``) take no lock, under every
    executor: at every batch boundary the writer publishes an immutable
    :class:`SessionSnapshot` (before the boundary's event is emitted), and
    each read uses the current one — so a reader in another thread sees
    the scores from before or after a concurrently applied batch, never a
    half-repaired intermediate, and never waits for a batch, a worker or a
    checkpoint.  ``batches_applied`` is the snapshot's.  Once a worker
    failure has shut a process or shard session's pool down, reads raise
    :class:`~repro.exceptions.ConfigurationError` rather than serve the
    dead ensemble's last boundary.  Writes are still expected to come
    from one writer at a time (the service layer funnels them through a
    single worker per session); the lock makes ``close`` safe to call
    from any thread — including concurrently with a pending checkpoint,
    which it waits out.  The lock is re-entrant so subscribers may query
    or checkpoint the session from inside an event handler.

    **Checkpoint policy.**  A session checkpoints itself at birth, after
    every batch on its cadence (``config.checkpoint_every``, or a shard
    root's) and at ``close`` when behind; :attr:`durable_batches` reports
    what the newest checkpoint covers.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[BetweennessConfig] = None,
        store: Optional[BDStore] = None,
        subscribers: Sequence[Subscriber] = (),
    ) -> None:
        if config is None:
            config = BetweennessConfig.for_graph(graph)
        if config.directed != graph.directed:
            graph_kind = "directed" if graph.directed else "undirected"
            config_kind = "directed" if config.directed else "undirected"
            raise ConfigurationError(
                f"config declares a {config_kind} graph but the given graph "
                f"is {graph_kind}; set BetweennessConfig(directed=...) to "
                "match (or use BetweennessConfig.for_graph)"
            )
        self._reset(config, subscribers)

        if config.executor == "serial":
            if store is None:
                store = create_store(
                    config.store,
                    graph.vertex_list(),
                    directed=graph.directed,
                    backend=config.backend,
                )
            self._framework = IncrementalBetweenness(
                graph,
                store=store,
                backend=config.backend,
                maintain_predecessors=config.maintain_predecessors,
            )
        elif store is not None:
            raise ConfigurationError(
                "an explicit store object is only supported by the serial "
                "executor (parallel executors build per-worker stores)"
            )
        else:
            # One runtime for process and shard: a shard:// root is what
            # makes it durable.
            layout = (
                ShardLayout.from_uri(config.store, workers=config.workers)
                if config.executor == "shard"
                else None
            )
            self._cluster = ShardCoordinator(
                graph,
                layout,
                backend=config.backend,
                recv_timeout=config.recv_timeout,
                config=config.to_dict(),
                num_workers=config.workers,
                store=self._worker_store_kind(config.store),
                source_store_path=config.seed_store_path,
            )
            # Worker failures and recoveries surface as typed events; the
            # session announces checkpoint rounds itself, after the batch
            # each one covers.
            self._cluster.notify = self._shard_notify
        self._announce_bootstrap()
        if config.checkpoint_every is not None:
            try:  # durable from birth
                self.checkpoint()
            except BaseException:
                self.close()
                raise

    def _reset(
        self,
        config: BetweennessConfig,
        subscribers: Sequence[Subscriber],
        batch_index: int = 0,
    ) -> None:
        """The state every constructor starts from (no engine yet)."""
        self._config = config
        self._subscribers: List[Subscriber] = []
        self._sequence = 0
        self._batch_index = batch_index
        self._durable_batches = batch_index
        self._closed = False
        self._state_lock = threading.RLock()
        self._published: Optional[SessionSnapshot] = None
        self._framework: Optional[IncrementalBetweenness] = None
        self._cluster = None
        # Registered before the bootstrap is announced, so constructor-passed
        # subscribers are the ones that can observe BootstrapCompleted.
        for subscriber in subscribers:
            self.subscribe(subscriber)

    def _announce_bootstrap(self) -> None:
        graph = self._engine().graph
        self._publish()
        self._emit(
            BootstrapCompleted,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            num_sources=(
                self._framework.num_sources
                if self._framework is not None
                else graph.num_vertices
            ),
        )

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_framework(
        cls,
        framework: IncrementalBetweenness,
        config: Optional[BetweennessConfig] = None,
        subscribers: Sequence[Subscriber] = (),
        batch_index: int = 0,
    ) -> "BetweennessSession":
        """Wrap an existing serial engine instance in a session.

        Used by the resume path; the framework is
        adopted as-is (no copy, no re-bootstrap), so the caller must not
        keep driving it directly.  ``batch_index`` is the number of batches
        the framework's state already covers (a resumed checkpoint's
        cursor): the session counts on from there, and treats them as
        durable.
        """
        if config is None:
            config = BetweennessConfig(
                backend=framework.backend, directed=framework.graph.directed
            )
        self = cls.__new__(cls)
        self._reset(config, subscribers, batch_index=batch_index)
        self._framework = framework
        self._announce_bootstrap()
        return self

    @classmethod
    def _from_shard_coordinator(
        cls,
        coordinator: ShardCoordinator,
        config: BetweennessConfig,
        subscribers: Sequence[Subscriber] = (),
    ) -> "BetweennessSession":
        """Wrap a live (usually resumed) shard coordinator in a session."""
        self = cls.__new__(cls)
        self._reset(config, subscribers, batch_index=coordinator.batch_cursor)
        self._cluster = coordinator
        coordinator.notify = self._shard_notify
        self._announce_bootstrap()
        return self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> BetweennessConfig:
        """The session's (frozen) configuration."""
        return self._config

    @property
    def graph(self) -> Graph:
        """The engine's current view of the graph (do not mutate)."""
        return self._engine().graph

    @property
    def framework(self) -> IncrementalBetweenness:
        """The underlying serial engine (serial executor only)."""
        if self._framework is None:
            raise ConfigurationError(
                f"the {self._config.executor!r} executor has no single "
                "serial framework instance"
            )
        return self._framework

    @property
    def engine(self) -> Any:
        """Whatever engine the config selected (framework or cluster)."""
        return self._engine()

    @property
    def batches_applied(self) -> int:
        """Batches applied through this session.  A resumed session includes
        the batches its checkpoint covers (a serial sidecar's cursor, a
        shard root's manifest cursor), so the count is lifetime-wide; it is
        the published snapshot's."""
        published = self._published
        if published is not None:
            return published.batches_applied
        return self._batch_index

    @property
    def durable_batches(self) -> int:
        """Batches the newest checkpoint covers; a kill loses nothing while
        it equals :attr:`batches_applied`.  A shard session reports its
        coordinator's last round; a ``process`` session has no durable
        state (0)."""
        if self._cluster is not None:
            return max(self._cluster.last_checkpoint_cursor, 0)
        return self._durable_batches

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    # ------------------------------------------------------------------ #
    # Subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a subscriber for all future events; returns it.

        Accepts a plain callable taking one event, or any object exposing
        ``on_event(event)`` (and optionally ``attach(session)``) — the
        :class:`~repro.api.events.SessionSubscriber` protocol is duck-typed
        so subscribers need no import of this package.
        """
        if hasattr(subscriber, "on_event"):
            attach = getattr(subscriber, "attach", None)
            if attach is not None:
                attach(self)
        elif not callable(subscriber):
            raise ConfigurationError(
                "subscriber must be callable or expose on_event(event), got "
                f"{type(subscriber).__name__}"
            )
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a previously registered subscriber (no-op when absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def _emit(self, event_type, **fields) -> SessionEvent:
        """Publish one event to every subscriber, then surface any failures.

        Dispatch is *fault-isolated*: an exception raised by one subscriber
        neither skips the remaining subscribers nor interrupts the engine
        operation that produced the event (which has already committed by
        the time dispatch starts).  All failures are collected and
        re-raised together as :class:`~repro.exceptions.SubscriberError`
        once every subscriber has been notified — so untrusted subscribers
        (e.g. the service layer's per-client event bridges) cannot corrupt
        session state or starve their peers.
        """
        event = event_type(sequence=self._sequence, **fields)
        self._sequence += 1
        failures = []
        for subscriber in list(self._subscribers):
            handler = getattr(subscriber, "on_event", None)
            try:
                if handler is not None:
                    handler(event)
                else:
                    subscriber(event)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                failures.append((subscriber, exc))
        if failures:
            raise SubscriberError(event, failures) from failures[0][1]
        return event

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add_edge(self, u: Vertex, v: Vertex):
        """Add one edge and refresh all scores; emits :class:`UpdateApplied`."""
        return self.apply(EdgeUpdate.addition(u, v))

    def remove_edge(self, u: Vertex, v: Vertex):
        """Remove one edge and refresh all scores; emits :class:`UpdateApplied`."""
        return self.apply(EdgeUpdate.removal(u, v))

    def apply(self, update: EdgeUpdate):
        """Apply a single update; returns the engine's result object.

        It counts as a batch of one, as the shard coordinator counts it.
        """
        with self._state_lock:
            self._ensure_open()
            result = self._engine().apply(update)
            batch_index = self._batch_index
            self._batch_index += 1
            self._commit(
                UpdateApplied, update=update, result=result, batch_index=batch_index
            )
            return result

    def apply_batch(self, updates: Iterable[EdgeUpdate]):
        """Apply one batch in a single source sweep; emits :class:`BatchApplied`.

        Under the serial executor this is the batched pipeline
        (:meth:`IncrementalBetweenness.apply_updates
        <repro.core.framework.IncrementalBetweenness.apply_updates>`); under
        ``process`` and ``shard`` the batch is broadcast to the workers.
        """
        return self._apply_batch(list(updates))[0]

    def _apply_batch(self, batch: List[EdgeUpdate]):
        """Shared batch path; returns ``(engine_result, emitted_event)``.

        The event is threaded back explicitly (rather than re-read from any
        mutable "last event" state) because subscribers may emit further
        events — e.g. a checkpoint — while handling this one.
        """
        with self._state_lock:
            self._ensure_open()
            if self._framework is not None:
                result = self._framework.apply_updates(batch)
            else:
                result = self._cluster.apply_batch(batch)
            batch_index = self._batch_index
            self._batch_index += 1
            event = self._commit(
                BatchApplied,
                updates=tuple(batch),
                result=result,
                batch_index=batch_index,
            )
            return result, event

    def _commit(self, event_type, **fields) -> SessionEvent:
        """End a batch: publish the boundary and announce it, then the
        checkpoint that covers it, even if a subscriber failed — the round
        a shard coordinator ran inside the batch, or the policy's."""
        self._publish()
        ran_round = self._cluster is not None and (
            self.durable_batches == self._batch_index
        )
        try:
            return self._emit(event_type, **fields)
        finally:
            every = self._config.checkpoint_every
            if ran_round:
                self._announce_round()
            elif every and self._batch_index >= self._durable_batches + every:
                self.checkpoint()

    def stream(
        self,
        updates: Iterable[EdgeUpdate],
        batch_size: Optional[int] = None,
    ) -> Iterator[BatchApplied]:
        """Apply a stream in batches, yielding one event per batch (lazy).

        This is the only batching loop in the system: the stream is chunked
        into batches of ``batch_size`` (default: the config's) and each
        chunk goes through :meth:`apply_batch`, so the checkpoint policy
        (``checkpoint_every``) applies as it does to any batch.

        The generator is lazy — iterate it to drive the stream::

            for event in session.stream(updates):
                ...  # scores are current here; event.result has the stats
        """
        if batch_size is None:
            batch_size = self._config.batch_size
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        for chunk in batches(updates, batch_size):
            yield self._apply_batch(list(chunk))[1]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def vertex_betweenness(self) -> VertexScores:
        """Current (merged) vertex betweenness scores (batch-boundary view)."""
        return self._current_snapshot().vertex_scores.copy()

    def edge_betweenness(self) -> EdgeScores:
        """Current (merged) edge betweenness scores (batch-boundary view)."""
        return self._current_snapshot().edge_scores.copy()

    def top_k(self, k: int = 10, edges: bool = False) -> Ranking:
        """The ``k`` most central vertices (or edges) as ``(item, score)``.

        The result's ``batches_applied`` names the boundary it ranks.
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        snapshot = self._current_snapshot()
        return snapshot.top_edges(k) if edges else snapshot.top_vertices(k)

    def snapshot(self) -> SessionSnapshot:
        """Graph size and both score sides at the last batch boundary: the
        snapshot the writer published there, under every executor."""
        return self._current_snapshot()

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def checkpoint(self, path: Optional[PathLike] = None) -> Path:
        """Write a checkpoint sidecar with the session config embedded.

        ``path`` defaults to the config's ``checkpoint_path``.  Because the
        config travels inside the sidecar, :func:`resume_session` needs
        nothing but the path — no flags, no kwargs.

        Under the shard executor this runs a checkpoint *round*: every shard
        persists its state into the shard root and the coordinator manifest
        is rewritten; the return value is the manifest path (``path`` must
        be ``None`` — a sharded session's location is its store URI).  The
        same runtime without a root (``process``) has no durable state to
        checkpoint.
        """
        with self._state_lock:
            self._ensure_open()
            if self._cluster is not None and self._cluster.layout is not None:
                if path is not None:
                    raise ConfigurationError(
                        "a sharded session checkpoints into its shard root "
                        f"({self._cluster.layout.root}); drop the path argument"
                    )
                self._cluster.checkpoint()
                return self._announce_round()
            if self._framework is None:
                raise ConfigurationError(
                    "checkpoint() requires the serial or shard executor; "
                    "read scores with snapshot() instead, or run "
                    "serial/shard sessions for durable state"
                )
            if path is None:
                path = self._config.checkpoint_path
            if path is None:
                raise ConfigurationError(
                    "no checkpoint path: pass one explicitly or set "
                    "BetweennessConfig.checkpoint_path"
                )
            written = self._framework.checkpoint(
                path, config=self._config.to_dict(), batch_cursor=self._batch_index
            )
            self._durable_batches = self._batch_index
            self._emit(CheckpointWritten, path=str(written))
            return written

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the engine (stores, worker processes); idempotent.

        Batches past the newest checkpoint are checkpointed first: under a
        policy (released even if that fails, which then raises), or by a
        shard coordinator's best-effort final round.

        Safe to call from any thread, any number of times, including
        concurrently with a pending :meth:`checkpoint` or batch: the state
        lock serializes them, so a close issued mid-checkpoint waits for
        the checkpoint to finish rather than yanking the store out from
        under it.  Exactly one caller performs the teardown (and observes
        the :class:`SessionClosed` event); every other call returns
        immediately.
        """
        with self._state_lock:
            if self._closed:
                return
            durable = self.durable_batches
            try:
                if self._config.checkpoint_every is not None and (
                    durable < self._batch_index
                ):
                    self.checkpoint()
            finally:
                self._closed = True
                self._published = None
                if self._framework is not None:
                    self._framework.store.close()
                elif self._cluster is not None:
                    self._cluster.close()
                    if self.durable_batches > durable:
                        self._announce_round()
                self._emit(SessionClosed)

    def __enter__(self) -> "BetweennessSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _engine(self):
        self._ensure_open()
        return self._framework if self._framework is not None else self._cluster

    def _publish(self) -> None:
        """Publish the engine's current boundary for lock-free reads."""
        engine = self._engine()
        graph = engine.graph
        vertices, edges = engine.score_columns()
        self._published = SessionSnapshot(
            self._batch_index, graph.num_vertices, graph.num_edges, vertices, edges
        )

    def _current_snapshot(self) -> SessionSnapshot:
        """The published snapshot; raises once the session is closed, or
        once a worker failure has closed its pool."""
        published = self._published  # read before the checks: close clears it
        self._ensure_open()
        if self._cluster is not None and self._cluster.closed:
            raise ConfigurationError("the shard coordinator has been closed")
        return published

    def _announce_round(self) -> Path:
        """Announce the coordinator's newest round; returns its manifest."""
        path = self._cluster.layout.manifest_path
        self._emit(CheckpointWritten, path=str(path))
        return path

    def _shard_notify(self, kind: str, **fields) -> None:
        """Adapt the coordinator's plain callback into typed session events.

        The coordinator lives below the API layer and knows nothing about
        event classes; this bound method is the only coupling point.
        """
        if kind == "worker_failed":
            self._emit(WorkerFailed, **fields)
        elif kind == "shard_recovered":
            self._emit(ShardRecovered, **fields)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the session has been closed")

    @staticmethod
    def _worker_store_kind(uri: str) -> str:
        """Map a (path-less) store URI onto the executor's per-worker kinds."""
        scheme = parse_store_uri(uri).scheme
        return "disk" if scheme == "disk" else "memory"


def open_session(
    graph: Graph,
    config: Optional[BetweennessConfig] = None,
    **overrides: Any,
) -> BetweennessSession:
    """Build a session from a graph, a config and/or field overrides.

    ``overrides`` are :class:`~repro.api.config.BetweennessConfig` fields
    applied on top of ``config`` (or of a fresh default matching the
    graph's orientation)::

        session = open_session(graph, backend="arrays", batch_size=16)
    """
    if config is None:
        config = BetweennessConfig.for_graph(graph, **overrides)
    elif overrides:
        config = config.replace(**overrides)
    return BetweennessSession(graph, config)


def resume_session(
    checkpoint_path: PathLike,
    config: Optional[BetweennessConfig] = None,
    **overrides: Any,
) -> BetweennessSession:
    """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

    The configuration embedded in the sidecar is restored, so no flags or
    kwargs are needed; pass ``config`` to replace it wholesale, or
    individual :class:`~repro.api.config.BetweennessConfig` fields as
    ``overrides`` (e.g. ``resume_session(path, backend="arrays")`` to
    resume a dicts-backend checkpoint on the arrays kernel).  The records
    come from where the sidecar says, exactly as in
    :meth:`IncrementalBetweenness.resume
    <repro.core.framework.IncrementalBetweenness.resume>`: a durable store
    file at the recorded generation, or the embedded column payload.

    ``checkpoint_path`` may also be a **shard root** (the directory a
    ``shard://`` URI names, or its ``manifest.bin``): the whole sharded
    session — shard count, cadence, per-shard state, stream-born vertex
    assignment and the embedded config — is then restored from disk alone,
    with one worker re-seeded per shard.

    The sidecar — which may embed a full ``BD[.]`` snapshot — is read and
    deserialized exactly once here.
    """
    if ShardLayout.is_shard_root(checkpoint_path):
        return _resume_shard_session(checkpoint_path, config, overrides)
    ckpt = _load_checkpoint_for_resume(checkpoint_path)
    if config is None:
        if ckpt.config is not None:
            config = BetweennessConfig.from_dict(ckpt.config)
        else:
            # Pre-config sidecar (PR 2–4 era): reconstruct the minimum.
            config = BetweennessConfig(directed=ckpt.directed)
    if overrides:
        config = config.replace(**overrides)
    if config.executor != "serial":
        # Checkpoints are only ever written by serial sessions; a restored
        # parallel config would re-bootstrap rather than resume.  The
        # executor-only knobs (seed file, worker timeouts) are dropped with
        # the executor they belong to.
        config = config.replace(
            executor="serial",
            workers=1,
            seed_store_path=None,
            recv_timeout=None,
        )
    framework = IncrementalBetweenness.resume(
        checkpoint_path, backend=config.backend, checkpoint=ckpt
    )
    # Sidecars written before serial sessions recorded their count carry no
    # cursor; those resume counting from zero.
    return BetweennessSession.from_framework(
        framework, config=config, batch_index=ckpt.batch_cursor or 0
    )


def _load_checkpoint_for_resume(path: PathLike):
    """Load a sidecar for :func:`resume_session`, with a clean error surface.

    The storage layer raises typed low-level errors (``FileNotFoundError``,
    :class:`~repro.exceptions.StoreCorruptedError`, ...) that make sense
    when you are holding a store — but ``resume_session`` is handed a bare
    *path*, often from a config file or an HTTP request, so a missing or
    mangled checkpoint is a configuration problem.  Mapping everything to
    :class:`~repro.exceptions.ConfigurationError` (with the path in the
    message) lets callers like the service layer translate it to a clean
    404/409 instead of leaking a stack trace.  A sidecar of an earlier
    format keeps its :class:`~repro.exceptions.StoreVersionError`, whose
    message names the ``repro migrate`` command that converts it.
    """
    try:
        return load_checkpoint(path)
    except StoreVersionError:
        raise
    except FileNotFoundError as exc:
        raise ConfigurationError(
            f"cannot resume: checkpoint {path} does not exist"
        ) from exc
    except StorageError as exc:
        raise ConfigurationError(
            f"cannot resume: checkpoint {path} is not a readable checkpoint "
            f"sidecar ({exc})"
        ) from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot resume: checkpoint {path} cannot be read ({exc})"
        ) from exc


def _resume_shard_session(
    root: PathLike,
    config: Optional[BetweennessConfig],
    overrides: dict,
) -> BetweennessSession:
    """The shard-root branch of :func:`resume_session`."""
    root = Path(root)
    if root.name == "manifest.bin":
        root = root.parent
    try:
        manifest = load_manifest(root)
    except StoreVersionError:
        raise
    except StorageError as exc:
        raise ConfigurationError(
            f"cannot resume: shard root {root} has an unreadable manifest "
            f"({exc})"
        ) from exc
    if config is None:
        if manifest.config is not None:
            config = BetweennessConfig.from_dict(manifest.config)
            # The root may have moved since the manifest was written: name
            # the root being resumed, keeping the recorded query.
            _, _, query = config.store.partition("?")
            config = config.replace(
                store=f"shard://{root.resolve()}" + (f"?{query}" if query else "")
            )
        else:
            # The ensemble was driven by a bare coordinator, not a session;
            # reconstruct the equivalent declarative description.
            config = BetweennessConfig(
                executor="shard",
                backend=manifest.backend,
                directed=manifest.directed,
                workers=manifest.num_shards,
                store=(
                    f"shard://{root.resolve()}?shards={manifest.num_shards}"
                    f"&checkpoint_every={manifest.checkpoint_every}"
                ),
            )
    if overrides:
        config = config.replace(**overrides)
    if config.executor != "shard":
        raise ConfigurationError(
            f"{root} is a shard root; it can only resume under the shard "
            f"executor (config asks for {config.executor!r})"
        )
    coordinator = ShardCoordinator.resume(
        root,
        backend=config.backend,
        recv_timeout=config.recv_timeout,
        config=config.to_dict(),
    )
    return BetweennessSession._from_shard_coordinator(coordinator, config)
