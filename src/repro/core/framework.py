"""Public facade of the incremental betweenness framework (Figure 1).

:class:`IncrementalBetweenness` glues the pieces together:

* **Step 1** — run the modified Brandes algorithm once on the initial graph,
  keeping vertex and edge betweenness and storing the per-source data
  ``BD[s]`` in a pluggable :class:`~repro.storage.base.BDStore` (in memory or
  out of core);
* **Step 2** — for every edge addition or removal in the update stream,
  sweep over the sources: peek at the two endpoint distances to skip sources
  the update cannot affect (Proposition 3.1), repair the others with the
  per-source incremental algorithms, and fold the corrections into the
  global vertex/edge betweenness scores.

A framework instance can also be restricted to a subset of sources, in which
case it maintains *partial* betweenness scores — exactly what one mapper of
the parallel embodiment (Section 5.4) owns; the reducer then sums partial
scores across instances.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.brandes import SourceData, brandes_betweenness
from repro.core.checkpoint import (
    FrameworkCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.classification import UpdateCase
from repro.core.kernel import ArrayKernel, NumberedScores, ScoreColumn
from repro.core.result import BatchResult, SourceUpdateStats, UpdateResult
from repro.core.source_update import update_source
from repro.core.updates import EdgeUpdate, UpdateKind, validate_batch
from repro.exceptions import ConfigurationError, UpdateError
from repro.graph.graph import Graph
from repro.storage.arrays import ArrayBDStore
from repro.storage.base import BDStore
from repro.storage.columns import ColumnBlock, export_columns, import_columns
from repro.storage.disk import DiskBDStore
from repro.storage.memory import InMemoryBDStore
from repro.types import (
    BACKENDS,
    UNREACHABLE,
    Edge,
    EdgeScores,
    Vertex,
    VertexScores,
    canonical_edge,
    validate_backend,
)
from repro.utils.timing import Timer

PathLike = Union[str, Path]


def _check_store_orientation(store: Optional[BDStore], directed: bool) -> None:
    """Refuse a store whose recorded orientation contradicts the graph's.

    Stores that persist a directedness flag (the disk store's header bit,
    the array store's constructor argument) expose it as a ``directed``
    attribute; ``None`` means "orientation-agnostic" and is accepted.  A
    mismatch would silently misinterpret every BD record — a directed
    record set replayed with symmetric adjacency, or vice versa — so it is
    rejected up front.
    """
    if store is None:
        return
    store_directed = getattr(store, "directed", None)
    if store_directed is not None and store_directed != directed:
        store_kind = "directed" if store_directed else "undirected"
        graph_kind = "directed" if directed else "undirected"
        raise ConfigurationError(
            f"store records a {store_kind} graph but the framework graph is "
            f"{graph_kind}; a store can only be resumed with the orientation "
            "it was written with"
        )


class IncrementalBetweenness:
    """Maintain vertex and edge betweenness under edge additions and removals.

    Parameters
    ----------
    graph:
        The initial graph.  The framework keeps its own copy; callers apply
        subsequent changes through :meth:`add_edge` / :meth:`remove_edge` /
        :meth:`apply` so that the internal data structures stay consistent.
    store:
        Backend holding the per-source data.  Defaults to an in-memory store
        (the "MO" configuration); pass a
        :class:`~repro.storage.disk.DiskBDStore` for the out-of-core "DO"
        configuration.
    sources:
        Optional subset of sources this instance is responsible for.  When
        given, the maintained scores are partial (summing the scores of a
        set of instances whose source sets partition the vertex set yields
        the exact scores).  New vertices arriving in the stream are adopted
        as new sources only by unrestricted instances; restricted instances
        adopt them through :meth:`add_source`, letting the parallel driver
        decide the owner.
    maintain_predecessors:
        Also keep per-source predecessor lists up to date, reproducing the
        memory and maintenance cost of the paper's "MP" configuration.  The
        incremental repairs never need the lists (that is the point of the
        memory optimisation of Section 3), so this switch exists purely for
        the MP-vs-MO comparison of Figure 5 and for ablation experiments.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    >>> ibc = IncrementalBetweenness(g)
    >>> ibc.add_edge(0, 3)
    UpdateResult(...)
    >>> round(ibc.vertex_score(1), 6)
    1.0
    """

    def __init__(
        self,
        graph: Graph,
        store: Optional[BDStore] = None,
        sources: Optional[Sequence[Vertex]] = None,
        maintain_predecessors: bool = False,
        backend: str = "dicts",
    ) -> None:
        _check_store_orientation(store, graph.directed)
        self._graph = graph.copy()
        self._backend = validate_backend(backend)
        self._kernel: Optional[ArrayKernel] = None
        self._restricted = sources is not None
        self._maintain_predecessors = maintain_predecessors
        self._predecessors: Dict[Vertex, Dict[Vertex, set]] = {}
        source_list = list(sources) if sources is not None else self._graph.vertex_list()

        if self._backend == "arrays":
            if maintain_predecessors:
                raise ConfigurationError(
                    "maintain_predecessors (the MP configuration) is only "
                    "supported by the dicts backend"
                )
            self._store = (
                store if store is not None
                else ArrayBDStore(
                    self._graph.vertex_list(),
                    row_capacity=len(source_list),
                    directed=self._graph.directed,
                )
            )
            self._kernel = ArrayKernel(self._graph, self._store)
        else:
            self._store = store if store is not None else InMemoryBDStore()
            self._vertex_scores: VertexScores = {
                v: 0.0 for v in self._graph.vertices()
            }
            self._edge_scores: EdgeScores = {
                self._edge_key(u, v): 0.0 for u, v in self._graph.edges()
            }
        self._initialize(source_list)

    @classmethod
    def from_store(
        cls,
        graph: Graph,
        store: BDStore,
        restricted: Optional[bool] = None,
        backend: str = "dicts",
    ) -> "IncrementalBetweenness":
        """Resume from a store that *already* holds ``BD[.]`` records.

        This is the reconstruction path of checkpoint/resume: a durable
        :class:`~repro.storage.disk.DiskBDStore` written by a previous
        process is reopened by path and handed here together with the
        current graph; the global vertex/edge scores are rebuilt by scanning
        every stored record once (one record in memory at a time — no
        snapshot dict is materialised), yielding exactly the scores a
        from-scratch bootstrap over the same sources would produce.

        **Contract:** ``graph`` must be the graph state the store's records
        describe.  The store persists no edge list, so a mismatched graph
        cannot generally be detected and would yield silently wrong scores —
        use :meth:`checkpoint`/:meth:`resume` when the graph itself needs to
        be persisted alongside the records.  Sources referencing vertices
        the graph lacks *are* detected and rejected.

        ``restricted`` defaults to auto-detection: an instance whose store
        covers every graph vertex as a source is unrestricted (it will adopt
        stream-born vertices automatically), anything less is treated as a
        partition worker.
        """
        graph_vertices = set(graph.vertices())
        stray = set(store.sources()) - graph_vertices
        if stray:
            raise ConfigurationError(
                f"store sources {sorted(map(repr, stray))} are not vertices "
                "of the given graph — the store describes a different graph "
                "state (resume from a checkpoint to restore the matching "
                "graph)"
            )
        if restricted is None:
            restricted = set(store.sources()) != graph_vertices
        self = cls._bare(graph, store, restricted, backend)
        if isinstance(store, ArrayBDStore):
            self._accumulate_column_store(store)
        else:
            for source in store.sources():
                self._accumulate_record(store.get(source))
        return self

    @classmethod
    def _bare(
        cls,
        graph: Graph,
        store: Optional[BDStore],
        restricted: bool,
        backend: str = "dicts",
        copy_graph: bool = True,
    ) -> "IncrementalBetweenness":
        """Instance with zeroed scores and no bootstrap (shared by resume paths).

        ``copy_graph=False`` adopts ``graph`` as-is — used by resume when the
        graph was just rebuilt order-exactly from a checkpoint's adjacency
        payload (``copy()`` would re-canonicalize neighbor order and break
        bit-identical post-resume sweeps); the caller must not reuse it.
        """
        _check_store_orientation(store, graph.directed)
        self = cls.__new__(cls)
        self._graph = graph.copy() if copy_graph else graph
        self._backend = validate_backend(backend)
        self._kernel = None
        self._restricted = restricted
        self._maintain_predecessors = False
        self._predecessors = {}
        if self._backend == "arrays":
            self._store = (
                store if store is not None
                else ArrayBDStore(
                    self._graph.vertex_list(), directed=self._graph.directed
                )
            )
            # The kernel starts every edge at a 0.0 score entry.
            self._kernel = ArrayKernel(self._graph, self._store)
        else:
            self._store = store if store is not None else InMemoryBDStore()
            self._vertex_scores = {v: 0.0 for v in self._graph.vertices()}
            self._edge_scores = {
                self._edge_key(u, v): 0.0 for u, v in self._graph.edges()
            }
        return self

    def _accumulate_column_store(self, store: ArrayBDStore) -> None:
        """:meth:`_accumulate_record` over a whole column store, in column space.

        The rebuild reads each record's ``(distance, sigma, delta)`` row
        views directly — no dict decode — and folds it into per-slot and
        per-edge accumulator vectors with element-wise numpy ops.  Bit
        identity with the scalar loop is by construction: records are
        folded one at a time in source order (never summed across an
        axis, which would re-associate), masked lanes contribute an exact
        ``+0.0`` (every real contribution is positive, so ``x + 0.0``
        round-trips its bits), and each lane applies the scalar path's
        own expression shape ``(sigma_u / sigma_v) * (1.0 + delta_v)``.
        """
        index = store.vertex_index
        edge_entries = []  # (canonical key, u slot, v slot)
        for u, v in self._graph.edges():
            if u in index and v in index:
                edge_entries.append(
                    (self._edge_key(u, v), index.slot(u), index.slot(v))
                )
        num_edges = len(edge_entries)
        u_slots = np.array([e[1] for e in edge_entries], dtype=np.int64)
        v_slots = np.array([e[2] for e in edge_entries], dtype=np.int64)
        if not self._graph.directed:
            # Both orientations of every undirected edge, reverse pairs in
            # the second half: per record at most one orientation is a DAG
            # edge, so halves recombine into canonical edge space exactly.
            u_slots, v_slots = (
                np.concatenate([u_slots, v_slots]),
                np.concatenate([v_slots, u_slots]),
            )

        vertex_acc = np.zeros(store.capacity, dtype=np.float64)
        edge_acc = np.zeros(num_edges, dtype=np.float64)
        for source in store.sources():
            dist_row, sigma_row, delta_row = store.record_columns(source)
            contribution = delta_row.copy()
            contribution[index.slot(source)] = 0.0  # own dependency excluded
            vertex_acc += contribution
            if num_edges:
                dist = dist_row.astype(np.int64)
                dist_u = dist[u_slots]
                mask = (dist_u != UNREACHABLE) & (dist[v_slots] == dist_u + 1)
                ratio = sigma_row[u_slots] / np.where(mask, sigma_row[v_slots], 1)
                pair = np.where(mask, ratio * (1.0 + delta_row[v_slots]), 0.0)
                edge_acc += (
                    pair if self._graph.directed
                    else pair[:num_edges] + pair[num_edges:]
                )

        vertex_scores = {
            vertex: float(vertex_acc[index.slot(vertex)])
            for vertex in self._graph.vertices()
            if vertex in index
        }
        edge_scores = {
            key: score for (key, _, _), score in zip(edge_entries, edge_acc.tolist())
        }
        if self._kernel is not None:
            self._kernel.load_scores(vertex_scores, edge_scores)
        else:
            self._vertex_scores.update(vertex_scores)
            self._edge_scores.update(edge_scores)

    def _accumulate_record(self, data: SourceData) -> None:
        """Fold one ``BD[s]`` record into the dicts backend's scores."""
        source = data.source
        for vertex, dependency in data.delta.items():
            if vertex != source:
                self._vertex_scores[vertex] += dependency
        # Every DAG edge (parent -> child) carries the dependency
        # sigma[parent]/sigma[child] * (1 + delta[child]).  Only edges
        # between vertices the record reaches can be DAG edges, so the
        # scan is proportional to the record, not the whole graph.
        for parent, parent_distance in data.distance.items():
            for child in self._graph.out_neighbors(parent):
                if data.distance.get(child) != parent_distance + 1:
                    continue
                contribution = (
                    data.sigma[parent]
                    / data.sigma[child]
                    * (1.0 + data.delta[child])
                )
                self._edge_scores[self._edge_key(parent, child)] += contribution

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def checkpoint(
        self,
        path: PathLike,
        config: Optional[Dict] = None,
        batch_cursor: Optional[int] = None,
    ) -> Path:
        """Write a sidecar checkpoint so a later process can :meth:`resume`.

        The sidecar holds the graph, the global vertex/edge scores and the
        restriction flag.  When the backing store is a durable
        :class:`~repro.storage.disk.DiskBDStore` (caller-named path) only
        its *path* is recorded — the records stay in the store file, which
        is flushed here; otherwise (in-memory or temporary store) the
        ``BD[.]`` records are embedded as a column payload
        (:class:`~repro.storage.columns.ColumnBlock`).

        ``config`` optionally embeds a session configuration dict
        (``BetweennessConfig.to_dict()``) into the sidecar, which is what
        lets ``repro.api.resume_session`` restore a session from nothing
        but the checkpoint path; ``batch_cursor`` records how many batches
        the checkpoint covers, which a resumed session continues counting
        from.

        Predecessor lists (the MP configuration) are not checkpointed; a
        resumed instance runs without them, which never changes scores.
        """
        return save_checkpoint(
            path, self.build_checkpoint(config=config, batch_cursor=batch_cursor)
        )

    def build_checkpoint(
        self,
        config: Optional[Dict] = None,
        batch_cursor: Optional[int] = None,
        shard_meta: Optional[Dict] = None,
    ) -> FrameworkCheckpoint:
        """Assemble the sidecar payload of :meth:`checkpoint` without writing it.

        The record location is derived from the backing store: a durable
        disk store is flushed and referenced by path + generation, anything
        else (RAM or a temporary file — every shard worker's store) is
        embedded as a column payload of the owned sources' rows.
        ``batch_cursor`` and ``shard_meta`` are recorded verbatim (see
        :class:`FrameworkCheckpoint`).
        """
        columns: Optional[ColumnBlock] = None
        store_path: Optional[str] = None
        store_generation: Optional[int] = None
        if isinstance(self._store, DiskBDStore) and self._store.persistent:
            self._store.flush()
            # Resolve to an absolute path: the sidecar may be loaded from
            # a different working directory than the one that wrote it.
            store_path = str(Path(self._store.path).resolve())
            store_generation = self._store.generation
        else:
            columns = export_columns(self._store, self._graph.vertex_list())
        return FrameworkCheckpoint(
            vertex_scores=self.vertex_betweenness(),
            edge_scores=self.edge_betweenness(),
            restricted=self._restricted,
            store_path=store_path,
            columns=columns,
            store_generation=store_generation,
            directed=self._graph.directed,
            config=config,
            batch_cursor=batch_cursor,
            adjacency=self._graph.adjacency_payload(),
            shard_meta=shard_meta,
        )

    @classmethod
    def resume(
        cls,
        checkpoint_path: PathLike,
        backend: str = "dicts",
        checkpoint: Optional[FrameworkCheckpoint] = None,
    ) -> "IncrementalBetweenness":
        """Rebuild an instance from a :meth:`checkpoint` sidecar — no Brandes.

        The graph and the global scores come straight from the sidecar;
        the ``BD[.]`` records come from the durable store file recorded in
        the checkpoint (reopened via :meth:`DiskBDStore.open
        <repro.storage.disk.DiskBDStore.open>`, refused unless it is at the
        recorded generation), or else from the column payload embedded in
        the sidecar (imported into the fresh in-RAM store ``backend`` runs
        on, in the checkpointed slot and row order).

        A caller that already parsed the sidecar (the session layer reads
        the embedded config first) passes it as ``checkpoint`` so the file
        — which may embed every ``BD[.]`` record — is not deserialized a
        second time; ``checkpoint_path`` is then only used in messages.
        """
        ckpt = checkpoint if checkpoint is not None else load_checkpoint(checkpoint_path)
        # Order-exact rebuild: post-resume repair sweeps accumulate floats
        # in the same neighbor order the checkpointing process would have,
        # so a resumed run is bit-identical to an unbroken one.
        graph = Graph.from_adjacency_payload(ckpt.adjacency, directed=ckpt.directed)
        if ckpt.store_path is not None:
            store = DiskBDStore.open(ckpt.store_path)
            if (
                ckpt.store_generation is not None
                and store.generation != ckpt.store_generation
            ):
                generation = store.generation
                store.close()
                raise ConfigurationError(
                    f"store {ckpt.store_path} is at generation "
                    f"{generation} but the checkpoint was written at "
                    f"generation {ckpt.store_generation}: the store was "
                    "modified after checkpointing, so the sidecar's "
                    "scores no longer describe it — re-checkpoint after "
                    "every session that writes to the store"
                )
        elif ckpt.columns is not None:
            store = import_columns(ckpt.columns, backend, graph.directed)
        else:
            raise ConfigurationError(
                f"checkpoint {checkpoint_path} records neither a store "
                "path nor embedded records"
            )
        self = cls._bare(graph, store, ckpt.restricted, backend, copy_graph=False)
        if self._kernel is not None:
            self._kernel.load_scores(ckpt.vertex_scores, ckpt.edge_scores)
        else:
            self._vertex_scores = dict(ckpt.vertex_scores)
            self._edge_scores = dict(ckpt.edge_scores)
        return self

    # ------------------------------------------------------------------ #
    # Step 1: offline bootstrap
    # ------------------------------------------------------------------ #
    def _initialize(self, sources: Sequence[Vertex]) -> None:
        if self._backend == "arrays":
            # Vectorized Brandes over the CSR mirror; records land in the
            # column store and the scores in the kernel's arrays.
            self._kernel.bootstrap(sources)
            return
        result = brandes_betweenness(
            self._graph,
            sources=sources,
            keep_predecessors=False,
            collect_source_data=True,
        )
        self._vertex_scores = result.vertex_scores
        self._edge_scores = result.edge_scores
        for source, data in result.source_data.items():
            self._store.put(data)
            if self._maintain_predecessors:
                self._predecessors[source] = self._build_predecessors(data)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The framework's current view of the graph (do not mutate directly)."""
        return self._graph

    @property
    def store(self) -> BDStore:
        """The backing betweenness-data store."""
        return self._store

    @property
    def backend(self) -> str:
        """The compute backend: ``"dicts"`` or ``"arrays"``."""
        return self._backend

    @property
    def num_sources(self) -> int:
        """Number of sources this instance maintains."""
        return len(self._store)

    def vertex_betweenness(self) -> VertexScores:
        """Copy of the current vertex betweenness scores.

        The arrays backend lists its vertices in slot order, the dicts
        backend in its dict's order.
        """
        if self._kernel is not None:
            return self._kernel.vertex_column().to_dict()
        return dict(self._vertex_scores)

    def edge_betweenness(self) -> EdgeScores:
        """Copy of the current edge betweenness scores.

        The arrays backend lists its edges in ascending registry id, the
        dicts backend in its dict's order.
        """
        if self._kernel is not None:
            return self._kernel.edge_column().to_dict()
        return dict(self._edge_scores)

    def score_columns(self) -> Tuple[ScoreColumn, ScoreColumn]:
        """Private copies of both score sides, for a batch-boundary snapshot.

        The arrays backend copies its score arrays (no per-entry Python);
        the dicts backend copies its two dicts.
        """
        if self._kernel is not None:
            return self._kernel.vertex_column(), self._kernel.edge_column()
        return (
            ScoreColumn.from_mapping(dict(self._vertex_scores)),
            ScoreColumn.from_mapping(dict(self._edge_scores)),
        )

    def numbered_scores(self) -> Optional[Tuple[NumberedScores, NumberedScores]]:
        """Both score sides over the arrays kernel's permanent entry
        numbers (:class:`~repro.core.kernel.NumberedScores`): vertex slots
        and edge registry ids.  ``None`` on the dicts backend, whose scores
        have no numbering.
        """
        if self._kernel is None:
            return None
        return self._kernel.numbered_scores()

    def vertex_score(self, vertex: Vertex) -> float:
        """Current betweenness of ``vertex`` (``KeyError`` if unknown)."""
        if self._kernel is not None:
            return self._kernel.vertex_score(vertex)
        return self._vertex_scores[vertex]

    def edge_score(self, u: Vertex, v: Vertex) -> float:
        """Current betweenness of the edge ``(u, v)`` (``KeyError`` if absent)."""
        if self._kernel is not None:
            return self._kernel.edge_score(u, v)
        return self._edge_scores[self._edge_key(u, v)]

    # ------------------------------------------------------------------ #
    # Step 2: online updates
    # ------------------------------------------------------------------ #
    def add_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Add the edge ``(u, v)`` and update all betweenness scores."""
        return self.apply(EdgeUpdate.addition(u, v))

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Remove the edge ``(u, v)`` and update all betweenness scores."""
        return self.apply(EdgeUpdate.removal(u, v))

    def apply(self, update: EdgeUpdate) -> UpdateResult:
        """Apply a single edge update (Step 2 of the framework)."""
        timer = Timer()
        with timer.measure():
            result = self._apply(update)
        result.elapsed_seconds = timer.total
        return result

    def process_stream(self, updates: Iterable[EdgeUpdate]) -> List[UpdateResult]:
        """Apply a whole update stream, returning one result per update."""
        return [self.apply(update) for update in updates]

    def apply_updates(
        self,
        updates: Iterable[EdgeUpdate],
        adopt: Optional[Iterable[Vertex]] = None,
    ) -> BatchResult:
        """Apply a batch of consecutive edge updates in a single source sweep.

        The one-at-a-time path (:meth:`apply`) sweeps the whole source store
        once per update, so a stream of ``k`` updates loads and saves every
        non-skipped ``BD[s]`` record up to ``k`` times — the dominant cost of
        the out-of-core configuration.  This method inverts the loop nest:
        every source is visited *once* and the batch is replayed against it
        in order, so each record is loaded and saved at most once per batch
        while the scores remain exactly those of the one-at-a-time path
        (each (source, update) repair sees the same graph state and the
        per-source corrections are additive, hence order-independent across
        sources).

        Parameters
        ----------
        updates:
            The batch, in application order.  The whole batch is validated
            against the current graph before any state is touched, so an
            invalid update leaves the framework unchanged.
        adopt:
            Only for restricted (partial) instances: vertices created by this
            batch that *this* instance adopts as new sources.  Unrestricted
            instances adopt every new vertex automatically and must leave
            this ``None``.  Mirrors :meth:`add_source` for the batched path:
            the parallel driver decides which worker owns each new vertex.
        """
        timer = Timer()
        with timer.measure():
            result = self._apply_batch(list(updates), adopt)
        result.elapsed_seconds = timer.total
        return result

    def add_source(self, vertex: Vertex) -> None:
        """Adopt ``vertex`` as a source maintained by this (partial) instance."""
        if not self._graph.has_vertex(vertex):
            self._graph.add_vertex(vertex)
        self._register_vertex(vertex)
        if self._kernel is None:
            # The kernel's registration already gave it a 0.0 score.
            self._vertex_scores.setdefault(vertex, 0.0)
        if vertex not in self._store:
            self._store.add_source(vertex)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _edge_key(self, u: Vertex, v: Vertex) -> Edge:
        if self._graph.directed:
            return (u, v)
        return canonical_edge(u, v)

    # -- backend engine: graph mutation mirroring ----------------------- #
    def _graph_add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add an edge to the label graph and, for arrays, its CSR mirror."""
        self._graph.add_edge(u, v)
        if self._kernel is not None:
            self._kernel.add_edge(u, v)

    def _graph_remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove an edge from the label graph and its CSR mirror."""
        self._graph.remove_edge(u, v)
        if self._kernel is not None:
            self._kernel.remove_edge(u, v)

    def _register_vertex(self, vertex: Vertex) -> None:
        """Give a stream-born vertex a store slot (and CSR/score slots)."""
        if self._kernel is not None:
            self._kernel.register_vertex(vertex)
        else:
            self._store.register_vertex(vertex)

    def _build_predecessors(self, data) -> Dict[Vertex, set]:
        """Predecessor lists of one source, derived from its distances."""
        lists: Dict[Vertex, set] = {}
        for vertex, level in data.distance.items():
            lists[vertex] = {
                neighbor
                for neighbor in self._graph.in_neighbors(vertex)
                if data.distance.get(neighbor) == level - 1
            }
        return lists

    def _apply(self, update: EdgeUpdate) -> UpdateResult:
        """A single update is a batch of one — the batched sweep is the engine.

        The one-at-a-time and batched paths used to be two separate
        implementations of the same Step-2 sweep (validate, peek, repair,
        fold, finalize); they are deduplicated here, so every invariant —
        Proposition 3.1 skips, vertex births, edge-score key lifecycle —
        lives in exactly one place (:meth:`_apply_batch`).
        """
        return self._apply_batch([update], None).results[0]

    # ------------------------------------------------------------------ #
    # Batched pipeline internals
    # ------------------------------------------------------------------ #
    def _apply_batch(
        self, batch: List[EdgeUpdate], adopt: Optional[Iterable[Vertex]]
    ) -> BatchResult:
        if adopt is not None and not self._restricted:
            raise UpdateError(
                "adopt is only meaningful for restricted instances; "
                "unrestricted instances adopt new vertices automatically"
            )
        if not batch:
            return BatchResult()

        births = validate_batch(self._graph, batch)
        if self._restricted:
            adopted = self._resolve_adoptions(adopt, births)
        else:
            adopted = dict(births)

        results = [UpdateResult(update=update) for update in batch]
        batch_result = BatchResult(updates=list(batch), results=results)

        if self._kernel is not None:
            self._sweep_batch_cohort(births, adopted, batch, results, batch_result)
        else:
            self._register_births(births)
            self._sweep_batch_sources(adopted, batch, results, batch_result)
        self._finalize_batch(batch, births)
        return batch_result

    def _sweep_batch_sources(
        self,
        adopted: Dict[Vertex, int],
        batch: List[EdgeUpdate],
        results: List[UpdateResult],
        batch_result: BatchResult,
    ) -> None:
        """Source-outer sweep of the dicts backend (Step 2, loop inverted).

        Every existing source is visited once: skipped from its stored
        endpoint distances alone when Proposition 3.1 holds for the whole
        batch, otherwise loaded, replayed against the batch and saved.
        """
        for source in list(self._store.sources()):
            if self._peek_all_skip(source, batch):
                for result in results:
                    result.record(SourceUpdateStats(case=UpdateCase.SKIP))
                batch_result.sources_peek_skipped += 1
                continue
            data = self._store.get(source)
            batch_result.sources_loaded += 1
            self._replay_batch_for_source(source, data, 0, batch, results)
            self._store.put(data)

        # Sources born inside the batch replay only their suffix.
        for vertex, birth in sorted(adopted.items(), key=lambda item: item[1]):
            data = SourceData(source=vertex)
            data.distance[vertex] = 0
            data.sigma[vertex] = 1
            data.delta[vertex] = 0.0
            self._replay_batch_for_source(vertex, data, birth, batch, results)
            self._store.put(data)
            batch_result.sources_loaded += 1

    def _register_births(self, births: Dict[Vertex, int]) -> None:
        """Give the batch's new vertices slots before any record is saved
        (existing sources may start reaching them)."""
        for vertex in births:
            self._register_vertex(vertex)

    def _sweep_batch_cohort(
        self,
        births: Dict[Vertex, int],
        adopted: Dict[Vertex, int],
        batch: List[EdgeUpdate],
        results: List[UpdateResult],
        batch_result: BatchResult,
    ) -> None:
        """Update-outer sweep of the arrays backend: one cohort per update.

        Flipping the loop nest of :meth:`_sweep_batch_sources` lets the
        kernel repair and accumulate one update across *all* affected
        sources in a single pair-space sweep
        (:meth:`ArrayKernel.repair_update_cohort`).  Peek semantics,
        per-update stats and the final record/score state are identical to
        the source-outer loop.  The sweep writes the store's rows in place;
        if any update fails, the kernel restores every record the batch
        wrote and forgets the vertices and sources its births added before
        the error propagates, so a failed batch leaves the store and scores
        as they were.
        """
        marks = (len(self._kernel.index), len(self._store))
        try:
            self._register_births(births)
            source_count = len(self._store)
            slots, firsts = self._kernel.sources_to_load(batch)
            self._kernel.begin_batch(batch)
            batch_result.sources_peek_skipped += source_count - slots.size
            # A peek-skipped source is a proven skip for every update, a
            # loaded one for the updates before its first failing peek (on
            # an untouched record) — counted per update, not repaired.
            opened = np.cumsum(np.bincount(firsts, minlength=len(batch)))
            for result, skipped in zip(results, (source_count - opened).tolist()):
                result.fold({UpdateCase.SKIP: skipped})
            # Row growth reallocates the store's matrices, so every born
            # source gets its row before the rows are opened.
            born = sorted(adopted.items(), key=lambda item: item[1])
            for vertex, _birth in born:
                self._store.add_source(vertex)
            if born:
                slots = np.concatenate(
                    (slots, [self._kernel.index.slot(vertex) for vertex, _ in born])
                )
                firsts = np.concatenate((firsts, [birth for _, birth in born]))
            self._kernel.open_sources(slots, firsts)
            batch_result.sources_loaded += slots.size
            first_update = int(firsts.min()) if firsts.size else len(batch)
            for index in range(first_update, len(batch)):
                self._kernel.repair_update_cohort(index, results[index])
            self._kernel.flush_cohort_scores()
        except BaseException:
            self._kernel.rollback_batch(*marks)
            raise
        finally:
            self._kernel.end_batch()

    def _resolve_adoptions(
        self, adopt: Optional[Iterable[Vertex]], births: Dict[Vertex, int]
    ) -> Dict[Vertex, int]:
        """Map the vertices this restricted instance adopts to birth indices."""
        adopted: Dict[Vertex, int] = {}
        for vertex in adopt or ():
            if vertex in self._store:
                raise UpdateError(f"{vertex!r} is already a source of this instance")
            if vertex in births:
                adopted[vertex] = births[vertex]
            elif (
                self._graph.has_vertex(vertex)
                and not self._graph.neighbors(vertex)
            ):
                # An isolated pre-existing vertex is exactly what a fresh
                # self-only record describes, so adopting it mid-stream and
                # replaying the whole batch matches add_source() + apply().
                adopted[vertex] = 0
            else:
                raise UpdateError(
                    f"cannot adopt {vertex!r}: a batch can only adopt "
                    "vertices it creates or isolated pre-existing vertices "
                    "(a connected vertex needs a real BD record, not the "
                    "self-only seed)"
                )
        return adopted

    def _peek_all_skip(self, source: Vertex, batch: List[EdgeUpdate]) -> bool:
        """Decide, from stored distances alone, that the batch skips ``source``.

        The check is exact: a skipped update leaves ``BD[source]`` untouched,
        so as long as every prefix of the batch consists of skips, the stored
        (pre-batch) distances are the live distances and Proposition 3.1
        applies to the next update too.  The first update that fails the
        check invalidates the induction, and the caller falls back to loading
        the record and replaying the batch against it.
        """
        for update in batch:
            u, v = update.endpoints
            du, dv = self._store.endpoint_distances(source, u, v)
            if not self._distances_skip(du, dv):
                return False
        return True

    def _distances_skip(self, du: Optional[int], dv: Optional[int]) -> bool:
        """Proposition 3.1 on two stored endpoint distances.

        Undirected: skip iff both endpoints sit on the same level (with
        "unreachable" comparing equal to itself).  Directed (the edge is
        oriented ``u -> v``): skip iff the tail is unreachable, or the head
        is no farther than the tail (``dv <= du`` — the edge can neither
        carry nor have carried a shortest path).  Both forms are exact for
        every update kind: a skipped source's record is provably untouched.
        """
        if self._graph.directed:
            if du is None:
                return True
            return dv is not None and dv <= du
        if du is None and dv is None:
            return True
        return du is not None and dv is not None and du == dv

    def _replay_batch_for_source(
        self,
        source: Vertex,
        data: SourceData,
        start_index: int,
        batch: List[EdgeUpdate],
        results: List[UpdateResult],
    ) -> None:
        """Replay the batch in order against one source's betweenness data.

        The graph is rolled forward through the batch so that each repair
        sees exactly the state the one-at-a-time path would, and rewound
        afterwards so the next source starts from the pre-batch graph.
        Updates before ``start_index`` (the source's birth) mutate the graph
        but are not repaired, matching the serial path where the source did
        not exist yet.

        The rewind restores adjacency *snapshots* rather than applying
        inverse updates: re-adding a removed edge would append it at the
        end of its endpoints' neighbor lists, perturbing iteration order
        for every subsequent source and thereby the floating-point
        summation order of their repairs.  Snapshot restore keeps each
        source's roll starting from the bit-identical pre-batch order —
        the same order the compiled snapshots of the arrays backend see.
        """
        endpoints = {w for update in batch for w in update.endpoints}
        graph_snapshot = self._graph.adjacency_snapshot(endpoints)
        predecessors = (
            self._predecessors.setdefault(source, {})
            if self._maintain_predecessors
            else None
        )
        try:
            for index, update in enumerate(batch):
                u, v = update.endpoints
                if update.kind is UpdateKind.ADDITION:
                    self._graph.add_edge(u, v)
                else:
                    self._graph.remove_edge(u, v)
                if index < start_index:
                    continue
                stats = update_source(
                    self._graph,
                    data,
                    update,
                    self._vertex_scores,
                    self._edge_scores,
                    self._edge_key,
                    predecessors=predecessors,
                )
                results[index].record(stats)
        finally:
            self._graph.restore_adjacency(graph_snapshot)

    def _finalize_batch(
        self, batch: List[EdgeUpdate], births: Dict[Vertex, int]
    ) -> None:
        """Advance the graph to the post-batch state and fix score keys."""
        for update in batch:
            u, v = update.endpoints
            if update.kind is UpdateKind.ADDITION:
                self._graph_add_edge(u, v)
            else:
                self._graph_remove_edge(u, v)
        # An edge's score entry exists exactly while the edge does; within a
        # batch only the final state matters (net-zero contributions of an
        # edge added and removed in the same batch disappear with its key).
        edges = [update.endpoints for update in batch]
        present = [self._graph.has_edge(u, v) for u, v in edges]
        if self._kernel is not None:
            # Born vertices hold 0.0 scores since their registration.
            self._kernel.settle_edges(edges, present)
            return
        for vertex in births:
            self._vertex_scores.setdefault(vertex, 0.0)
        for (u, v), keep in zip(edges, present):
            key = self._edge_key(u, v)
            if keep:
                self._edge_scores.setdefault(key, 0.0)
            else:
                self._edge_scores.pop(key, None)

