"""Array-native compute kernel: CSR graph + flat slot-indexed BD records.

This module is the compute side of the columnar storage layout: where the
classic (``dicts``) backend of :class:`~repro.core.framework.\
IncrementalBetweenness` keeps ``BD[s]`` as Python dictionaries keyed by
arbitrary vertex labels, the array backend works directly on the three
fixed-width columns the stores persist (int16 distance / int64 sigma /
float64 delta), indexed by dense integer *slots*:

* the **bootstrap** (Step 1) is a vectorized, level-synchronous Brandes:
  per source, BFS frontiers and dependency accumulation are whole-level
  numpy operations over the compiled CSR arrays, with edge-betweenness
  contributions folded into a flat per-edge array via ``np.add.at``;
* the **update sweep** (Step 2) is a *cohort* sweep: per update of the
  batch, every source the update can affect is classified, repaired and
  accumulated at once, in place on the store's own column matrices at
  flat pair ids ``row * capacity + slot`` (:class:`~repro.core.flat.\
PairSpace`; the ``*_cohort`` routines of :mod:`repro.core.addition`,
  :mod:`repro.core.removal` and :mod:`repro.core.accumulation`) — no
  record is copied and no dictionary is ever materialised, an undo log
  of the written pairs serves pre-update reads and rolls a failed batch
  back, the graph is a patched snapshot of the
  :class:`~repro.graph.csr.CSRGraph` mirror per update, and the global
  scores are a flat float64 array plus a slot-pair edge registry.  A solo
  source is a cohort of one; there is no other update path;
* the **skip test** (Proposition 3.1) is evaluated for a whole batch and
  every source with one fancy-indexed gather over the distance columns;
* the **scores** stay in those two arrays: the framework reads them as
  score columns (vertices in slot order, present edges in ascending
  registry id) or one key at a time, bulk-loads them on resume and
  settles a batch's edge keys through :class:`ArrayKernel` methods, with
  no dict in between.

Bit-identity with the dict backend is by construction, not by accident:
the label graph's insertion-ordered adjacency is mirrored slot for slot by
the CSR structure, every cohort walk admits vertices in the order the
scalar loops would visit them, the bootstrap and the sweep arrange their
``np.add.at`` operands in exactly that order, and the writes to the shared
score accumulators are deferred and replayed source-major (the dict
backend's loop nest) — so every floating-point operation happens on the
same operands in the same sequence, and the two backends return
byte-for-byte equal scores.
"""

from __future__ import annotations

from time import perf_counter
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.algorithms.brandes import BrandesResult, SourceData
from repro.core.accumulation import CohortScoreStreams, accumulate_cohort
from repro.core.addition import (
    repair_addition_structural_cohort,
    repair_same_level_cohort,
)
from repro.core.classification import (
    ADD_SAME_CODE,
    ADD_STRUCT_CODE,
    CASE_ORDER,
    REMOVE_SAME_CODE,
    REMOVE_STRUCT_CODE,
    classify_cohort,
)
from repro.core.flat import FlatBatchState, PairSpace, slice_positions
from repro.core.removal import repair_removal_structural_cohort
from repro.core.result import UpdateResult
from repro.core.updates import EdgeUpdate
from repro.exceptions import ConfigurationError, StoreCorruptedError
from repro.graph.csr import CSRGraph, with_edge, without_edge
from repro.graph.graph import Graph
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    MAX_DISTANCE,
    SIGMA_DTYPE,
    decode_record_arrays,
)
from repro.storage.index import VertexIndex
from repro.types import UNREACHABLE, Vertex, canonical_edge
from repro.utils.stats import top_k_ranked

__all__ = [
    "ArrayKernel",
    "EdgeScoreRegistry",
    "NumberedScores",
    "ScoreColumn",
    "brandes_betweenness_arrays",
]

#: What a store must offer for ``backend="arrays"`` to run on it: the slot
#: index, record and source registration, and the column matrices the
#: cohort sweep repairs in place — live C-contiguous views that alias the
#: store, addressed through flat pair ids.
_COLUMN_PROTOCOL = (
    "vertex_index",
    "register_vertex",
    "add_source",
    "put_columns",
    "source_slots",
    "sweep_rows",
    "column_matrices",
    "peek_distance_block",
)


def _slot_edge_key(i: int, j: int) -> Tuple[int, int]:
    """Canonical slot-pair key — the slot-space twin of ``canonical_edge``."""
    return (i, j) if i <= j else (j, i)


def _directed_slot_edge_key(i: int, j: int) -> Tuple[int, int]:
    """Oriented slot-pair key for directed graphs (no canonicalisation)."""
    return (i, j)


class EdgeScoreRegistry:
    """Slot-pair edge scores as a flat float64 array with permanent ids.

    The vectorized accumulation folds a whole level's edge contributions
    into one scatter-add, which needs every edge score to live at a stable
    integer id.  The registry assigns each slot pair a *permanent* id on
    first sight (ids survive the edge being removed and re-added) and keeps
    the scores in :attr:`values` with an :attr:`active` mask marking the
    pairs that are present edges.  These ids are the kernel's CSR entry
    ids, so every patched snapshot of a batch scatters straight into the
    same accumulators.

    An inactive id always holds 0.0: :meth:`deactivate` zeroes what it
    retires, so a re-added edge starts from 0.0, as a fresh one does.
    Present edges export in ascending id (:meth:`export`), the one order
    every score reader sees.
    """

    __slots__ = ("_id_of", "_pairs", "values", "active")

    def __init__(self) -> None:
        self._id_of: Dict[Tuple[int, int], int] = {}
        self._pairs: List[Tuple[int, int]] = []
        self.values = np.zeros(8, dtype=np.float64)
        self.active = np.zeros(8, dtype=np.bool_)

    def _ensure_capacity(self, needed: int) -> None:
        capacity = len(self.values)
        if needed <= capacity:
            return
        grown = max(needed, capacity + (capacity >> 1) + 1)
        values = np.zeros(grown, dtype=np.float64)
        values[:capacity] = self.values
        active = np.zeros(grown, dtype=np.bool_)
        active[:capacity] = self.active
        self.values = values
        self.active = active

    def ensure_id(self, pair: Tuple[int, int]) -> int:
        """Permanent id of ``pair``, assigning one on first sight."""
        edge_id = self._id_of.get(pair)
        if edge_id is None:
            edge_id = len(self._pairs)
            self._id_of[pair] = edge_id
            self._pairs.append(pair)
            self._ensure_capacity(edge_id + 1)
        return edge_id

    def active_id(self, pair: Tuple[int, int]) -> Optional[int]:
        """Id of ``pair`` while it is a present edge, else ``None``."""
        edge_id = self._id_of.get(pair)
        if edge_id is None or not self.active[edge_id]:
            return None
        return edge_id

    def activate_written(self, ids: np.ndarray) -> None:
        """Make every id in ``ids`` a present edge; inactive ones start at 0.0."""
        inactive = ids[~self.active[ids]]
        if inactive.size:
            fresh = np.unique(inactive)
            self.values[fresh] = 0.0
            self.active[fresh] = True

    def deactivate(self, ids: np.ndarray) -> None:
        """Retire every id in ``ids``: no longer present, score zeroed."""
        self.values[ids] = 0.0
        self.active[ids] = False

    def reset(self, pairs: Sequence[Tuple[int, int]], scores: np.ndarray) -> None:
        """Replace the whole registry: ``pairs[k]`` gets id ``k``, all active.

        Called with a from-scratch CSR compile's ``edge_pairs``, this makes
        the compile's entry ids registry ids.
        """
        self._id_of = {pair: edge_id for edge_id, pair in enumerate(pairs)}
        self._pairs = list(pairs)
        count = len(self._pairs)
        capacity = max(count, 8)
        self.values = np.zeros(capacity, dtype=np.float64)
        self.values[:count] = scores
        self.active = np.zeros(capacity, dtype=np.bool_)
        self.active[:count] = True

    def export(self) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
        """Copies of the active ids, their scores and the id -> pair list."""
        pairs = list(self._pairs)
        ids = np.flatnonzero(self.active[: len(pairs)])
        return ids, self.values[ids], pairs

    def numbered(self) -> Tuple[np.ndarray, Optional[np.ndarray], Callable]:
        """Copies of every id's score and of the active mask (``None``: all
        ids are active), and the live id -> pair lookup."""
        count = len(self._pairs)
        active = self.active[:count]
        return (
            self.values[:count].copy(),
            None if active.all() else active.copy(),
            self._pairs.__getitem__,
        )


class ScoreColumn:
    """One side (vertices or edges) of the scores at one batch boundary.

    ``values`` is a private float64 copy that nothing mutates; ``label(i)``
    names entry ``i`` and runs only for the entries a reader asks for, so
    publishing a column costs array copies and no per-entry Python.
    """

    __slots__ = ("values", "label", "_mapping")

    def __init__(self, values: np.ndarray, label: Callable[[int], Any]) -> None:
        self.values = values
        self.label = label
        self._mapping: Optional[MappingProxyType] = None

    @classmethod
    def from_mapping(cls, scores: Dict) -> "ScoreColumn":
        """Adopt a score dict the caller owns and no longer mutates."""
        labels = list(scores)
        column = cls(
            np.fromiter(scores.values(), np.float64, len(labels)),
            labels.__getitem__,
        )
        column._mapping = MappingProxyType(scores)
        return column

    def to_dict(self) -> Dict[Any, float]:
        """A fresh ``{label: score}`` dict, in entry order."""
        labels = map(self.label, range(self.values.shape[0]))
        return dict(zip(labels, self.values.tolist()))

    def mapping(self) -> MappingProxyType:
        """Read-only ``{label: score}`` view, built on first use."""
        if self._mapping is None:
            self._mapping = MappingProxyType(self.to_dict())
        return self._mapping

    def top_k(self, k: int) -> List[Tuple[Any, float]]:
        """The ``k`` best ``(label, score)`` pairs (see :func:`top_k_ranked`)."""
        return top_k_ranked(self.values, k, self.label)


class NumberedScores(NamedTuple):
    """One score side over the kernel's permanent entry numbers (vertex
    slots or edge registry ids), for a reader that diffs it from batch to
    batch (a shard worker's partial).

    ``values[i]`` is entry ``i``'s score and holds 0.0 while the entry is
    absent, ``present`` masks the present entries (``None``: all are) and
    ``label(i)`` names entry ``i``.  Numbers are only ever appended and
    never name another entry; ``label`` reads the live numbering.
    """

    values: np.ndarray
    present: Optional[np.ndarray]
    label: Callable[[int], Any]


# --------------------------------------------------------------------------- #
# Vectorized single-source Brandes (the bootstrap kernel)
# --------------------------------------------------------------------------- #
def _bfs_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source_slot: int,
    first_of: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Level-synchronous BFS with shortest-path counting.

    Returns ``(distance, sigma, levels)`` where ``levels[l]`` lists the
    slots discovered at distance ``l`` in discovery order — the same order
    the scalar FIFO BFS of ``single_source_brandes`` appends them.

    ``first_of`` is an optional length-``n`` int64 scratch array reused
    across sources (its contents are overwritten before every read).

    The columnar format caps values (int16 distances, int64 path counts —
    the same bounds :func:`repro.storage.codec.check_ranges` enforces when
    dict records are encoded).  Exceeding them here would otherwise *wrap*
    silently inside the fixed-width arrays, so both are guarded: a BFS
    deeper than ``MAX_DISTANCE`` levels raises, and a path count crossing
    ``2**63`` is caught by the wrapped-negative check below (the first
    overflowing int64 addition of two in-range counts always lands
    negative).
    """
    distance = np.full(n, UNREACHABLE, dtype=DISTANCE_DTYPE)
    sigma = np.zeros(n, dtype=SIGMA_DTYPE)
    distance[source_slot] = 0
    sigma[source_slot] = 1
    if first_of is None:
        first_of = np.empty(n, dtype=np.int64)
    levels: List[np.ndarray] = [np.array([source_slot], dtype=np.int64)]
    level = 0
    while True:
        frontier = levels[-1]
        positions, counts = slice_positions(indptr, frontier)
        if positions.size == 0:
            break
        neighbors = indices[positions]
        undiscovered = distance[neighbors] == UNREACHABLE
        if undiscovered.any():
            if level + 1 > MAX_DISTANCE:
                raise StoreCorruptedError(
                    f"BFS from slot {source_slot} exceeds the int16 distance "
                    f"column (levels beyond {MAX_DISTANCE})"
                )
            fresh = neighbors[undiscovered]
            # First-occurrence order == scalar BFS enqueue order.  Reversed
            # assignment makes the *first* occurrence win, so comparing each
            # element's recorded first position with its own position keeps
            # exactly the first copy of every slot — no sort needed.
            flat = np.arange(fresh.size, dtype=np.int64)
            first_of[fresh[::-1]] = flat[::-1]
            discovered = fresh[first_of[fresh] == flat]
            distance[discovered] = level + 1
        else:
            discovered = np.empty(0, dtype=np.int64)
        next_mask = distance[neighbors] == level + 1
        if next_mask.any():
            np.add.at(
                sigma,
                neighbors[next_mask],
                np.repeat(sigma[frontier], counts)[next_mask],
            )
        if discovered.size == 0:
            break
        levels.append(discovered)
        level += 1
    if sigma.min() < 0:
        raise StoreCorruptedError(
            f"shortest-path count from slot {source_slot} overflowed the "
            "int64 sigma column (the columnar format's limit; the dict "
            "backend with an in-memory store has no such cap)"
        )
    return distance, sigma, levels


def _accumulate_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_ids: np.ndarray,
    distance: np.ndarray,
    sigma: np.ndarray,
    levels: List[np.ndarray],
    edge_scores: np.ndarray,
) -> np.ndarray:
    """Vectorized dependency accumulation, deepest level first.

    Mirrors the scalar backtracking of ``single_source_brandes`` exactly:
    within a level, vertices are taken in *reversed* discovery order and
    each vertex's predecessors in adjacency order, and ``np.add.at``
    applies the per-(vertex, parent) contributions sequentially in that
    order — so every float lands on its accumulator in the same sequence
    as the dict implementation, keeping the sums bit-identical.

    ``indptr`` / ``indices`` / ``edge_ids`` must be the CSR family the
    scalar loop's ``graph.in_neighbors`` scan corresponds to: the shared
    adjacency for undirected graphs, the predecessor mirror
    (:meth:`~repro.graph.csr.CSRGraph.compiled_in`) for directed ones.
    """
    n = distance.shape[0]
    delta = np.zeros(n, dtype=DELTA_DTYPE)
    sigma_f = sigma.astype(np.float64)
    for level in range(len(levels) - 1, 0, -1):
        members = levels[level][::-1]
        positions, counts = slice_positions(indptr, members)
        if positions.size == 0:
            continue
        neighbors = indices[positions]
        parent_mask = distance[neighbors] == level - 1
        if not parent_mask.any():
            continue
        parents = neighbors[parent_mask]
        coefficient = (1.0 + delta[members]) / sigma_f[members]
        contributions = sigma_f[parents] * np.repeat(coefficient, counts)[parent_mask]
        np.add.at(delta, parents, contributions)
        np.add.at(edge_scores, edge_ids[positions[parent_mask]], contributions)
    return delta


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class ArrayKernel:
    """Array-native state and operations behind ``backend="arrays"``.

    Owns the CSR mirror of the framework's graph, the flat vertex-score
    array, the slot-pair edge-score registry, and the link to a *column store*
    (:class:`~repro.storage.arrays.ArrayBDStore` or
    :class:`~repro.storage.disk.DiskBDStore`) whose vertex index doubles as
    the label ↔ slot mapping.
    """

    def __init__(self, graph: Graph, store) -> None:
        for name in _COLUMN_PROTOCOL:
            if not hasattr(store, name):
                raise ConfigurationError(
                    f"store {type(store).__name__} does not speak the column "
                    f"protocol required by backend='arrays' (missing "
                    f"{name!r}); use ArrayBDStore (default) or DiskBDStore"
                )
        self._store = store
        self.index: VertexIndex = store.vertex_index
        self.directed: bool = graph.directed
        self.slot_edge_key = (
            _directed_slot_edge_key if graph.directed else _slot_edge_key
        )
        for vertex in graph.vertices():
            if vertex not in self.index:
                store.register_vertex(vertex)
        self.csr = CSRGraph.from_graph(graph, self.index)
        self._vscore = np.zeros(max(len(self.index), 1), dtype=np.float64)
        # Every edge starts with a 0.0 score entry (the dict backend's
        # initial mapping), numbered by the compile: from here on the CSR
        # entries carry registry ids, and only an added edge needs one.
        edge_pairs = self.csr.compiled()[3]
        self._escore = EdgeScoreRegistry()
        self._escore.reset(edge_pairs, np.zeros(len(edge_pairs)))
        self._batch_states: Optional[List[FlatBatchState]] = None
        self._cohort_streams: Optional[CohortScoreStreams] = None
        self._pairs = PairSpace()
        # The batch's loaded sources: store rows in load order, the first
        # update each must be repaired for, and row-indexed source slots
        # and load ordinals (set by :meth:`open_sources`).
        self._rows = np.empty(0, dtype=np.int64)
        self._firsts = np.empty(0, dtype=np.int64)
        self._source_of_row = np.empty(0, dtype=np.int64)
        self._ordinal_of_row = np.empty(0, dtype=np.int64)
        #: When set to a dict, the cohort sweep accumulates per-phase
        #: wall-clock seconds into the keys "classify" / "repair" /
        #: "accumulate" (benchmark instrumentation, off by default).
        self.phase_timings: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #
    # Scores: label-keyed reads and writes of the flat score arrays
    # ------------------------------------------------------------------ #
    def vertex_column(self) -> ScoreColumn:
        """Every indexed vertex's score in slot order, as a private copy."""
        labels = self.index.vertices()
        return ScoreColumn(self._vscore[: len(labels)].copy(), labels.__getitem__)

    def edge_column(self) -> ScoreColumn:
        """Every present edge's score in ascending registry id, as a private
        copy; undirected edges are named by :func:`canonical_edge`."""
        labels = self.index.vertices()
        ids, values, pairs = self._escore.export()
        name = (lambda u, v: (u, v)) if self.directed else canonical_edge

        def edge_label(i: int) -> Tuple[Vertex, Vertex]:
            a, b = pairs[ids[i]]
            return name(labels[a], labels[b])

        return ScoreColumn(values, edge_label)

    def numbered_scores(self) -> Tuple[NumberedScores, NumberedScores]:
        """Both score sides over permanent numbers: vertex slots and edge
        registry ids (a retired id holds 0.0 and is masked absent)."""
        vertex = self.index.vertex
        values, active, pair = self._escore.numbered()
        name = (lambda u, v: (u, v)) if self.directed else canonical_edge

        def edge_label(i: int) -> Tuple[Vertex, Vertex]:
            a, b = pair(i)
            return name(vertex(a), vertex(b))

        return (
            NumberedScores(self._vscore[: len(self.index)].copy(), None, vertex),
            NumberedScores(values, active, edge_label),
        )

    def vertex_score(self, label: Vertex) -> float:
        """Score of one vertex (``KeyError`` if it has no slot)."""
        return float(self._vscore[self.index.slot(label)])

    def edge_score(self, u: Vertex, v: Vertex) -> float:
        """Score of one present edge (``KeyError`` if it is absent)."""
        edge_id = self._escore.active_id(
            self.slot_edge_key(self.index.slot(u), self.index.slot(v))
        )
        if edge_id is None:
            raise KeyError((u, v))
        return float(self._escore.values[edge_id])

    def load_scores(
        self,
        vertex_scores: Dict[Vertex, float],
        edge_scores: Dict[Tuple[Vertex, Vertex], float],
    ) -> None:
        """Overwrite the named vertices' and edges' scores with the given
        values, verbatim; every named edge becomes present."""
        count = len(vertex_scores)
        slots = np.fromiter(map(self.index.slot, vertex_scores), np.int64, count)
        self._vscore[slots] = np.fromiter(vertex_scores.values(), np.float64, count)
        ids = self._edge_ids(edge_scores)
        self._escore.activate_written(ids)
        self._escore.values[ids] = np.fromiter(
            edge_scores.values(), np.float64, ids.size
        )

    def settle_edges(
        self, edges: Sequence[Tuple[Vertex, Vertex]], present: Sequence[bool]
    ) -> None:
        """Fix the score keys of a committed batch's edges by their state
        after the batch: a present edge keeps its score (0.0 if its id was
        inactive), an absent one is retired and zeroed.  So an edge removed
        and re-added within the batch keeps the batch's contributions, and
        one added and removed loses them with its key."""
        ids = self._edge_ids(edges)
        keep = np.fromiter(present, np.bool_, ids.size)
        self._escore.activate_written(ids[keep])
        self._escore.deactivate(ids[~keep])

    def _edge_ids(self, edges: Collection[Tuple[Vertex, Vertex]]) -> np.ndarray:
        """Registry ids of label-keyed edges, assigned on first sight."""
        slot, key, ensure = self.index.slot, self.slot_edge_key, self._escore.ensure_id
        return np.fromiter(
            (ensure(key(slot(u), slot(v))) for u, v in edges), np.int64, len(edges)
        )

    # ------------------------------------------------------------------ #
    # Graph mirroring
    # ------------------------------------------------------------------ #
    def register_vertex(self, label: Vertex) -> None:
        """Give ``label`` a slot everywhere: store index, CSR, score array."""
        self._store.register_vertex(label)
        self._sync_capacity()

    def _sync_capacity(self) -> None:
        n = len(self.index)
        self.csr.ensure_vertices(n)
        if len(self._vscore) < n:
            grown = np.zeros(max(n, int(len(self._vscore) * 1.5) + 1), np.float64)
            grown[: len(self._vscore)] = self._vscore
            self._vscore = grown

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Mirror a label-graph edge addition (registers new endpoints).

        The framework calls this (and :meth:`remove_edge`) only when it
        commits a batch, so the live CSR never runs ahead of the records.
        """
        for label in (u, v):
            if label not in self.index:
                self.register_vertex(label)
        us, vs = self.index.slot(u), self.index.slot(v)
        self.csr.add_edge(us, vs, self._escore.ensure_id(self.slot_edge_key(us, vs)))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Mirror a label-graph edge removal."""
        self.csr.remove_edge(self.index.slot(u), self.index.slot(v))

    # ------------------------------------------------------------------ #
    # Step 2: the cohort sweep — one update, every affected source at once
    # ------------------------------------------------------------------ #
    def begin_batch(self, batch: Sequence[EdgeUpdate]) -> None:
        """Patch per-update graph snapshots for a batch sweep.

        Rolls the live CSR arrays forward through the batch, one
        :func:`~repro.graph.csr.with_edge` / :func:`~repro.graph.csr.\
without_edge` patch per update, stashing the out-/in-CSR families after
        every update — the graph state each scalar repair of that update
        would see.  Stashing references is safe because a patch *returns
        fresh arrays* and never writes its inputs; an added edge is
        registered (its permanent registry id goes into the patch), nothing
        is recompiled.  The live mirror is not touched: it advances only
        when the framework commits the batch (:meth:`add_edge` /
        :meth:`remove_edge`), so a failed batch leaves it as it was.
        """
        self._sync_capacity()
        out = self.csr.compiled()[:3]
        inn = self.csr.compiled_in()
        states: List[FlatBatchState] = []
        for update in batch:
            us = self.index.slot(update.u)
            vs = self.index.slot(update.v)
            edge_id = self._escore.ensure_id(self.slot_edge_key(us, vs))
            if update.is_addition:
                out, inn = with_edge(out, inn, self.directed, us, vs, edge_id)
            else:
                out, inn = without_edge(out, inn, self.directed, us, vs)
            states.append(
                FlatBatchState(
                    self.directed,
                    out[0],
                    out[1],
                    *inn,
                    us,
                    vs,
                    update.is_addition,
                    edge_id,
                )
            )
        self._batch_states = states

    def end_batch(self) -> None:
        """Drop the compiled batch snapshots (the batch sweep is over)."""
        self._batch_states = None
        self._cohort_streams = None
        self._pairs.unbind()

    def open_sources(self, slots: np.ndarray, firsts: np.ndarray) -> None:
        """Open the batch's loaded sources for repair in place.

        ``slots`` are the sources' vertex slots in load order (the order of
        the framework's source-outer reference loop) and ``firsts[i]`` is
        the first update of the batch that may affect the source at
        ``slots[i]``.  Their store rows are swept in place through the
        store's column matrices, which must not be regrown until the batch
        ends.
        """
        store = self._store
        rows = store.sweep_rows(slots)
        matrices = store.column_matrices()
        self._pairs.bind(matrices)
        row_capacity = matrices[0].shape[0]
        self._rows = rows
        self._firsts = np.asarray(firsts, dtype=np.int64)
        self._source_of_row = np.full(row_capacity, -1, dtype=np.int64)
        self._source_of_row[rows] = slots
        self._ordinal_of_row = np.zeros(row_capacity, dtype=np.int64)
        self._ordinal_of_row[rows] = np.arange(rows.size, dtype=np.int64)

    def rollback_batch(self, vertex_count: int, source_count: int) -> None:
        """Restore every record the failed batch wrote and forget the
        vertices and sources it added after ``vertex_count`` slots and
        ``source_count`` sources (scores were never written: their streams
        are dropped with the batch)."""
        if self._pairs.distance is not None:
            self._pairs.rollback()
        self._store.forget_since(vertex_count, source_count)
        self._vscore[vertex_count:] = 0.0

    def repair_update_cohort(self, update_index: int, result: UpdateResult) -> None:
        """Repair one update for every loaded source it may affect, at once.

        The cohort is every opened source whose first possibly-affecting
        update is at or before ``update_index``.  Classification is one
        vectorised pass over the cohort's rows (:func:`classify_cohort`);
        every repair class then runs as one cohort walk over pairs — same-
        level jobs via :func:`repair_same_level_cohort`, structural ones via
        :func:`repair_addition_structural_cohort` /
        :func:`repair_removal_structural_cohort` — writing the new distances
        and path counts in place on the store's rows, with each written
        pair's pre-update values in the pair space's undo log.  All classes
        feed merged ``(pair, level)`` plan chunks into one
        :func:`accumulate_cohort` sweep, which rebuilds dependencies in
        place.  Shared-score writes are deferred into a batch-wide stream
        keyed on the sources' load ordinals, and
        :meth:`flush_cohort_scores` replays the dict backend's source-outer
        float order once the whole batch has swept.

        The σ-overflow check runs on every affected pair before the update
        returns; it raises :class:`~repro.exceptions.StoreCorruptedError`,
        and the caller rolls the batch back (:meth:`rollback_batch`).  The
        cohort's per-case counts and summed work are folded into ``result``.
        """
        state = self._batch_states[update_index]
        timings = self.phase_timings
        if timings is not None:
            tick = perf_counter()
        pairs = self._pairs
        pairs.begin_update()
        if self._cohort_streams is None:
            self._cohort_streams = CohortScoreStreams()
        width = pairs.width
        distance, sigma, delta = pairs.distance, pairs.sigma, pairs.delta

        rows = self._rows[self._firsts <= update_index]
        codes, highs, lows = classify_cohort(state, distance, width, rows)
        counts = np.bincount(codes, minlength=len(CASE_ORDER)).tolist()
        case_counts = {case: count for case, count in zip(CASE_ORDER, counts) if count}
        repair_order = (
            ADD_SAME_CODE, REMOVE_SAME_CODE, ADD_STRUCT_CODE, REMOVE_STRUCT_CODE
        )
        jobs = {
            code: np.flatnonzero(codes == code)
            for code in repair_order
            if counts[code]
        }

        # Every removal seeds the sweep with the removed edge's pre-update
        # dependency, read before any repair writes, in the operand order of
        # the dict backend's _removed_edge_dependency.
        removals = [
            jobs[code]
            for code in (REMOVE_SAME_CODE, REMOVE_STRUCT_CODE)
            if code in jobs
        ]
        rem_k = np.concatenate(removals) if removals else np.empty(0, np.int64)
        rem_rows = rows[rem_k]
        rem_highs = highs[rem_k]
        rem_base = rem_rows * width
        sigma_high = sigma[rem_base + rem_highs]
        sigma_low = sigma[rem_base + lows[rem_k]]
        delta_low = delta[rem_base + lows[rem_k]]
        rem_red = sigma_high / sigma_low * (1.0 + delta_low)
        # Counts up to 2**53 are exact doubles, so that quotient is the
        # correctly rounded one; python's int division is correctly rounded
        # past 2**53 too, numpy's is not.
        inexact = np.flatnonzero((sigma_high > 2**53) | (sigma_low > 2**53))
        for i in inexact.tolist():
            rem_red[i] = (
                int(sigma_high[i]) / int(sigma_low[i]) * (1.0 + float(delta_low[i]))
            )
        if timings is not None:
            now = perf_counter()
            timings["classify"] = timings.get("classify", 0.0) + (now - tick)
            tick = now

        tri_p: List[np.ndarray] = []
        tri_l: List[np.ndarray] = []
        disc_pid = np.empty(0, dtype=np.int64)
        for code in repair_order:
            ks = jobs.get(code)
            if ks is None:
                continue
            job = (state, pairs, rows[ks], highs[ks], lows[ks])
            if code == ADD_STRUCT_CODE:
                cp, cl = repair_addition_structural_cohort(*job)
            elif code == REMOVE_STRUCT_CODE:
                cp, cl, disc_pid = repair_removal_structural_cohort(*job)
            else:
                sign = 1 if code == ADD_SAME_CODE else -1
                cp, cl = repair_same_level_cohort(*job, sign)
            tri_p.append(cp)
            tri_l.append(cl)
        empty = np.empty(0, dtype=np.int64)
        chunk_pid = np.concatenate(tri_p) if tri_p else empty
        if timings is not None:
            now = perf_counter()
            timings["repair"] = timings.get("repair", 0.0) + (now - tick)
            tick = now

        touched = accumulate_cohort(
            state,
            pairs,
            self._source_of_row,
            self._ordinal_of_row,
            chunk_pid,
            np.concatenate(tri_l) if tri_l else empty,
            rem_rows,
            rem_highs,
            rem_red,
            np.full(rem_k.size, state.edge_id, dtype=np.int64),
            disc_pid,
            self._cohort_streams,
            state.is_addition,
        )
        if disc_pid.size:
            sigma[disc_pid] = 0
            delta[disc_pid] = 0.0
        affected_sigma = sigma[chunk_pid]
        if affected_sigma.size and int(affected_sigma.min()) < 0:
            bad = int(chunk_pid[np.argmin(affected_sigma)]) // width
            raise StoreCorruptedError(
                f"shortest-path count from slot {int(self._source_of_row[bad])} "
                "overflowed the int64 sigma column during an incremental repair"
            )
        if timings is not None:
            now = perf_counter()
            timings["accumulate"] = timings.get("accumulate", 0.0) + (now - tick)
        result.fold(case_counts, chunk_pid.size, touched, disc_pid.size)

    def flush_cohort_scores(self) -> None:
        """Apply the batch's deferred shared-score streams (sweep is over)."""
        timings = self.phase_timings
        if timings is not None:
            tick = perf_counter()
        if self._cohort_streams is not None:
            self._cohort_streams.flush(self._vscore, self._escore)
        if timings is not None:
            now = perf_counter()
            timings["accumulate"] = timings.get("accumulate", 0.0) + (now - tick)

    # ------------------------------------------------------------------ #
    # Batched Proposition 3.1 peek
    # ------------------------------------------------------------------ #
    def sources_to_load(
        self, batch: Sequence[EdgeUpdate]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First update of the batch that may affect each source, batched.

        Semantics are exactly those of the scalar per-(source, update) peek
        — undirected: skip iff both endpoint distances are equal (with
        "unreachable" compared as ``-1 == -1``); directed (edge ``u -> v``):
        skip iff the tail is unreachable or the head is no farther than the
        tail — only the evaluation is batched.  Returns ``(slots, firsts)``
        for every possibly-affected source, in the store's source order:
        its vertex slot and the index of the first update whose peek fails.
        Sources absent from ``slots`` are provably skipped for the whole
        batch, and a present source is provably SKIP for every update
        before its first index (a passing peek leaves the record untouched,
        so the induction the scalar peek relies on holds per prefix).
        """
        source_slots = self._store.source_slots()
        if not source_slots.size or not batch:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        endpoint_slots: List[int] = []
        for update in batch:
            endpoint_slots.append(self.index.slot(update.u))
            endpoint_slots.append(self.index.slot(update.v))
        block = self._store.peek_distance_block(source_slots, endpoint_slots)
        us = block[:, 0::2]
        vs = block[:, 1::2]
        if self.directed:
            affected = (us != UNREACHABLE) & ((vs == UNREACHABLE) | (vs > us))
        else:
            affected = us != vs
        hit = np.flatnonzero(affected.any(axis=1))
        return source_slots[hit], np.argmax(affected[hit], axis=1)

    # ------------------------------------------------------------------ #
    # Step 1: vectorized Brandes bootstrap
    # ------------------------------------------------------------------ #
    def bootstrap(self, sources: Iterable[Vertex]) -> None:
        """Run the modified Brandes over ``sources``, filling store and scores."""
        indptr, indices, _edge_ids, edge_pairs = self.csr.compiled()
        # The forward BFS follows out-links, the dependency accumulation
        # scans in-links; for undirected graphs the in-CSR *is* the out-CSR
        # (same arrays), so this stays bit-identical to the historical path.
        in_indptr, in_indices, in_edge_ids = self.csr.compiled_in()
        n = self.csr.num_vertices
        self._sync_capacity()
        edge_scores = np.zeros(len(edge_pairs), dtype=np.float64)
        vscore = self._vscore
        scratch = np.empty(n, dtype=np.int64)
        for label in sources:
            source_slot = self.index.slot(label)
            distance, sigma, levels = _bfs_levels(
                indptr, indices, n, source_slot, scratch
            )
            delta = _accumulate_levels(
                in_indptr, in_indices, in_edge_ids, distance, sigma, levels,
                edge_scores,
            )
            if len(levels) > 1:
                reached = np.concatenate(levels[1:])
                vscore[reached] += delta[reached]
            self._store.put_columns(label, distance, sigma, delta)
        self._escore.reset(edge_pairs, edge_scores)


# --------------------------------------------------------------------------- #
# Standalone vectorized Brandes (no framework, no persistent store)
# --------------------------------------------------------------------------- #
def brandes_betweenness_arrays(
    graph: Graph,
    sources: Optional[Iterable[Vertex]] = None,
    collect_source_data: bool = False,
) -> BrandesResult:
    """Vectorized equivalent of :func:`repro.algorithms.brandes.\
brandes_betweenness` (predecessor-free variant, directed or undirected).

    Returns bit-identical scores to the dict implementation; see the module
    docstring for why.  Directed graphs run the forward sweep over the
    out-CSR and the dependency accumulation over the predecessor mirror,
    with edge scores keyed by the oriented ``(u, v)`` pair.
    ``collect_source_data`` decodes each flat record into a label-keyed
    :class:`SourceData`, which costs the dictionary materialisation the
    kernel otherwise avoids — only ask for it when the records are
    actually needed.
    """
    index = VertexIndex(graph.vertex_list())
    csr = CSRGraph.from_graph(graph, index)
    indptr, indices, _edge_ids, edge_pairs = csr.compiled()
    in_indptr, in_indices, in_edge_ids = csr.compiled_in()
    n = csr.num_vertices
    vscore = np.zeros(n, dtype=np.float64)
    edge_scores = np.zeros(len(edge_pairs), dtype=np.float64)
    source_list = list(sources) if sources is not None else graph.vertex_list()
    all_source_data: Optional[Dict[Vertex, SourceData]] = (
        {} if collect_source_data else None
    )
    scratch = np.empty(n, dtype=np.int64)
    for label in source_list:
        source_slot = index.slot(label)
        distance, sigma, levels = _bfs_levels(
            indptr, indices, n, source_slot, scratch
        )
        delta = _accumulate_levels(
            in_indptr, in_indices, in_edge_ids, distance, sigma, levels,
            edge_scores,
        )
        if len(levels) > 1:
            reached = np.concatenate(levels[1:])
            vscore[reached] += delta[reached]
        if all_source_data is not None:
            all_source_data[label] = decode_record_arrays(
                distance, sigma, delta, label, index
            )
    vertex_scores = {
        label: score
        for label, score in zip(index.vertices(), vscore.tolist())
    }
    if graph.directed:
        edge_score_dict = {
            (index.vertex(i), index.vertex(j)): score
            for (i, j), score in zip(edge_pairs, edge_scores.tolist())
        }
    else:
        edge_score_dict = {
            canonical_edge(index.vertex(i), index.vertex(j)): score
            for (i, j), score in zip(edge_pairs, edge_scores.tolist())
        }
    return BrandesResult(
        vertex_scores=vertex_scores,
        edge_scores=edge_score_dict,
        source_data=all_source_data,
    )
