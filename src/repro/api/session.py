"""The unified session facade: one entry point for every execution mode.

:class:`BetweennessSession` is the single public way to run the system.  It
takes an initial graph plus a declarative
:class:`~repro.api.config.BetweennessConfig` and hides, behind one stable
surface, everything PRs 1–4 grew underneath: the serial framework (in
memory, columnar or out of core), the batched update pipeline, the
simulated MapReduce cluster and the one multiprocessing runtime — bare
under ``executor="process"``, fault tolerant under ``executor="shard"`` + a
``shard://`` store URI.  Adding a new backend, store or executor is a
registry/config change — no call site ever threads a new kwarg again.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
from repro.core.updates import EdgeUpdate, batches
from repro.exceptions import ConfigurationError, StorageError, SubscriberError
from repro.graph.graph import Graph
from repro.parallel.mapreduce import MapReduceBetweenness
from repro.parallel.shards import ShardCoordinator
from repro.storage.base import BDStore
from repro.storage.disk import DiskBDStore
from repro.storage.factory import create_store, parse_store_uri
from repro.storage.shard import ShardLayout, load_manifest
from repro.types import Edge, EdgeScores, Vertex, VertexScores
from repro.utils.stats import top_k_items

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SessionSnapshot:
    """Immutable copy of a session's observable state at one moment."""

    sequence: int
    num_vertices: int
    num_edges: int
    vertex_scores: VertexScores
    edge_scores: EdgeScores

    def top_vertices(self, k: int) -> Tuple[Tuple[Vertex, float], ...]:
        """The ``k`` highest-betweenness vertices of this snapshot."""
        return tuple(top_k_items(self.vertex_scores.items(), k))

    def top_edges(self, k: int) -> Tuple[Tuple[Edge, float], ...]:
        """The ``k`` highest-betweenness edges of this snapshot."""
        return tuple(top_k_items(self.edge_scores.items(), k))


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
    ``apply_batch``, ``checkpoint``, ``close``) and every read
    (``vertex_betweenness``, ``edge_betweenness``, ``top_k``,
    ``snapshot``) runs under one internal re-entrant lock.  Readers in
    other threads therefore always observe a *batch-boundary* view: the
    scores either from before or from after any concurrently applied
    batch, never a half-repaired intermediate.  Writes are still expected
    to come from one writer at a time (the service layer funnels them
    through a single worker per session); the lock makes concurrent
    *readers* safe against that writer, and makes ``close`` safe to call
    from any thread — including concurrently with a pending checkpoint,
    which it waits out.  The lock is re-entrant so subscribers may query
    or checkpoint the session from inside an event handler.
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
                    shared_memory=config.effective_shared_memory,
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
        elif config.executor in ("process", "shard"):
            # One runtime: a shard:// root is what makes it durable.
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
                shared_memory=config.effective_shared_memory,
                config=config.to_dict(),
                num_workers=config.workers,
                store=self._worker_store_kind(config.store),
                source_store_path=config.seed_store_path,
            )
            # Hooked up only after construction so the ensemble's round-0
            # checkpoint is not emitted ahead of BootstrapCompleted; every
            # later round, failure and recovery surfaces as a typed event.
            self._cluster.notify = self._shard_notify
        else:  # mapreduce — validated by the config
            self._cluster = MapReduceBetweenness(
                graph,
                num_mappers=config.workers,
                store_factory=self._mapper_store_factory(config.store),
                backend=config.backend,
            )
        self._announce_bootstrap()

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
        self._batches_since_checkpoint = 0
        self._closed = False
        self._state_lock = threading.RLock()
        self._framework: Optional[IncrementalBetweenness] = None
        self._cluster = None
        # Registered before the bootstrap is announced, so constructor-passed
        # subscribers are the ones that can observe BootstrapCompleted.
        for subscriber in subscribers:
            self.subscribe(subscriber)

    def _announce_bootstrap(self) -> None:
        graph = self._engine().graph
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
    ) -> "BetweennessSession":
        """Wrap an existing serial engine instance in a session.

        Used by the resume path; the framework is
        adopted as-is (no copy, no re-bootstrap), so the caller must not
        keep driving it directly.
        """
        if config is None:
            config = BetweennessConfig(
                backend=framework.backend, directed=framework.graph.directed
            )
        self = cls.__new__(cls)
        self._reset(config, subscribers)
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
        """Batches applied through this session (shard resumes include the
        restored ensemble's batch cursor, so the count is lifetime-wide)."""
        return self._batch_index

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
        """Apply a single update; returns the engine's result object."""
        with self._state_lock:
            self._ensure_open()
            result = self._engine().apply(update)
            self._emit(UpdateApplied, update=update, result=result)
            return result

    def apply_batch(self, updates: Iterable[EdgeUpdate]):
        """Apply one batch in a single source sweep; emits :class:`BatchApplied`.

        Under the serial executor this is the batched pipeline
        (:meth:`IncrementalBetweenness.apply_updates
        <repro.core.framework.IncrementalBetweenness.apply_updates>`); under
        ``process`` the batch is broadcast to the workers; under
        ``mapreduce`` (which models per-update cluster rounds) the batch is
        applied update by update and the result is the tuple of per-update
        reports.
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
            elif isinstance(self._cluster, ShardCoordinator):
                result = self._cluster.apply_batch(batch)
            else:
                result = tuple(self._cluster.apply(update) for update in batch)
            batch_index = self._batch_index
            self._batch_index += 1
            event = self._emit(
                BatchApplied,
                updates=tuple(batch),
                result=result,
                batch_index=batch_index,
            )
            return result, event

    def stream(
        self,
        updates: Iterable[EdgeUpdate],
        batch_size: Optional[int] = None,
    ) -> Iterator[BatchApplied]:
        """Apply a stream in batches, yielding one event per batch (lazy).

        This is the only batching loop in the system: the stream is chunked
        into batches of ``batch_size`` (default: the config's) and each
        chunk goes through :meth:`apply_batch`.  When the config sets a
        checkpoint policy (``checkpoint_every`` + ``checkpoint_path``), a
        checkpoint is written automatically every that many batches.

        The generator is lazy — iterate it to drive the stream::

            for event in session.stream(updates):
                ...  # scores are current here; event.result has the stats
        """
        if batch_size is None:
            batch_size = self._config.batch_size
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        for chunk in batches(updates, batch_size):
            _, event = self._apply_batch(list(chunk))
            self._batches_since_checkpoint += 1
            if (
                self._config.checkpoint_every is not None
                and self._batches_since_checkpoint >= self._config.checkpoint_every
            ):
                self.checkpoint()
                self._batches_since_checkpoint = 0
            yield event

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def vertex_betweenness(self) -> VertexScores:
        """Current (merged) vertex betweenness scores (batch-boundary view)."""
        with self._state_lock:
            return self._engine().vertex_betweenness()

    def edge_betweenness(self) -> EdgeScores:
        """Current (merged) edge betweenness scores (batch-boundary view)."""
        with self._state_lock:
            return self._engine().edge_betweenness()

    def top_k(
        self, k: int = 10, edges: bool = False
    ) -> Tuple[Tuple[Any, float], ...]:
        """The ``k`` most central vertices (or edges) as ``(item, score)``."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        with self._state_lock:
            scores = (
                self.edge_betweenness() if edges else self.vertex_betweenness()
            )
        return tuple(top_k_items(scores.items(), k))

    def snapshot(self) -> SessionSnapshot:
        """An immutable copy of graph size and both score dictionaries.

        Atomic with respect to concurrent batches: the graph counters and
        both score dictionaries are captured under one lock acquisition, so
        they always describe the same batch boundary.
        """
        with self._state_lock:
            graph = self._engine().graph
            return SessionSnapshot(
                sequence=self._sequence,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                vertex_scores=self.vertex_betweenness(),
                edge_scores=self.edge_betweenness(),
            )

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
        same runtime without a root (``process``) and the simulated cluster
        have no durable state to checkpoint.
        """
        with self._state_lock:
            self._ensure_open()
            if (
                isinstance(self._cluster, ShardCoordinator)
                and self._cluster.layout is not None
            ):
                if path is not None:
                    raise ConfigurationError(
                        "a sharded session checkpoints into its shard root "
                        f"({self._cluster.layout.root}); drop the path argument"
                    )
                # The coordinator's notify hook emits CheckpointWritten.
                return self._cluster.checkpoint()
            if self._framework is None:
                raise ConfigurationError(
                    "checkpoint() requires the serial or shard executor; "
                    "collect scores with snapshot() instead, or run "
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
                path, config=self._config.to_dict()
            )
            self._emit(CheckpointWritten, path=str(written))
            return written

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the engine (stores, worker processes); idempotent.

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
            self._closed = True
            if self._framework is not None:
                self._framework.store.close()
            elif isinstance(self._cluster, ShardCoordinator):
                self._cluster.close()
            elif self._cluster is not None:
                for mapper in self._cluster.mappers:
                    mapper.store.close()
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

    def _shard_notify(self, kind: str, **fields) -> None:
        """Adapt the coordinator's plain callback into typed session events.

        The coordinator lives below the API layer and knows nothing about
        event classes; this bound method is the only coupling point.
        """
        if kind == "worker_failed":
            self._emit(WorkerFailed, **fields)
        elif kind == "shard_recovered":
            self._emit(ShardRecovered, **fields)
        elif kind == "checkpoint":
            self._emit(CheckpointWritten, path=fields["path"])

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the session has been closed")

    @staticmethod
    def _worker_store_kind(uri: str) -> str:
        """Map a (path-less) store URI onto the executor's per-worker kinds."""
        scheme = parse_store_uri(uri).scheme
        return "disk" if scheme == "disk" else "memory"

    @staticmethod
    def _mapper_store_factory(uri: str):
        """Per-mapper store factory for the simulated cluster, from the URI."""
        parsed = parse_store_uri(uri)
        if parsed.scheme != "disk":
            return None  # each mapper uses its backend's default RAM store

        def factory(partition, graph):
            return DiskBDStore(
                graph.vertex_list(),
                sources=list(partition.sources),
                directed=graph.directed,
            )

        return factory


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
    store: Optional[BDStore] = None,
    config: Optional[BetweennessConfig] = None,
    **overrides: Any,
) -> BetweennessSession:
    """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

    The configuration embedded in the sidecar is restored, so no flags or
    kwargs are needed; pass ``config`` to replace it wholesale, or
    individual :class:`~repro.api.config.BetweennessConfig` fields as
    ``overrides`` (e.g. ``resume_session(path, backend="arrays")`` to
    resume a dicts-backend checkpoint on the arrays kernel).  ``store``
    optionally supplies the record store explicitly, exactly like
    :meth:`IncrementalBetweenness.resume
    <repro.core.framework.IncrementalBetweenness.resume>`.

    ``checkpoint_path`` may also be a **shard root** (the directory a
    ``shard://`` URI names, or its ``manifest.bin``): the whole sharded
    session — shard count, cadence, per-shard state, stream-born vertex
    assignment and the embedded config — is then restored from disk alone,
    with one worker re-seeded per shard.

    The sidecar — which may embed a full ``BD[.]`` snapshot — is read and
    deserialized exactly once here.
    """
    if store is None and ShardLayout.is_shard_root(checkpoint_path):
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
        # executor-only knobs (worker timeouts, the zero-copy dispatch
        # plane) are dropped with the executor they belong to.
        config = config.replace(
            executor="serial",
            workers=1,
            seed_store_path=None,
            recv_timeout=None,
            shared_memory=False,
        )
    framework = IncrementalBetweenness.resume(
        checkpoint_path, store=store, backend=config.backend, checkpoint=ckpt
    )
    return BetweennessSession.from_framework(framework, config=config)


def _load_checkpoint_for_resume(path: PathLike):
    """Load a sidecar for :func:`resume_session`, with a clean error surface.

    The storage layer raises typed low-level errors (``FileNotFoundError``,
    :class:`~repro.exceptions.StoreCorruptedError`, ...) that make sense
    when you are holding a store — but ``resume_session`` is handed a bare
    *path*, often from a config file or an HTTP request, so a missing or
    mangled checkpoint is a configuration problem.  Mapping everything to
    :class:`~repro.exceptions.ConfigurationError` (with the path in the
    message) lets callers like the service layer translate it to a clean
    404/409 instead of leaking a stack trace.
    """
    try:
        return load_checkpoint(path)
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
    except StorageError as exc:
        raise ConfigurationError(
            f"cannot resume: shard root {root} has an unreadable manifest "
            f"({exc})"
        ) from exc
    if config is None:
        if manifest.config is not None:
            config = BetweennessConfig.from_dict(manifest.config)
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
        shared_memory=config.effective_shared_memory,
        config=config.to_dict(),
    )
    return BetweennessSession._from_shard_coordinator(coordinator, config)
