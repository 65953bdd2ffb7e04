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
  accumulated at once in (source, vertex) pair space over the store's own
  column matrices (the ``*_cohort`` routines of :mod:`repro.core.addition`,
  :mod:`repro.core.removal` and :mod:`repro.core.accumulation`) — no
  dictionary is ever materialised, the graph is a patched snapshot of the
  :class:`~repro.graph.csr.CSRGraph` mirror per update, and the global
  scores are a flat float64 array plus a slot-pair edge registry.  A solo
  source is a cohort of one; there is no other update path;
* the **skip test** (Proposition 3.1) is evaluated for a whole batch and
  every source with one fancy-indexed gather over the distance columns.

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
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
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
from repro.core.classification import UpdateCase, classify_flat
from repro.core.flat import FlatBatchState, slice_positions
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

__all__ = [
    "ArrayKernel",
    "EdgeScoreRegistry",
    "FlatSourceData",
    "brandes_betweenness_arrays",
]

#: What a store must offer for ``backend="arrays"`` to run on it: the slot
#: index, record and source registration, and bulk access to the column
#: matrices the cohort sweep gathers from and writes back to.
_COLUMN_PROTOCOL = (
    "vertex_index",
    "register_vertex",
    "add_source",
    "put_columns",
    "record_columns",
    "record_written",
    "columns_in_place",
    "column_matrices",
    "row_of_source_slot",
    "peek_distance_block",
)


def _slot_edge_key(i: int, j: int) -> Tuple[int, int]:
    """Canonical slot-pair key — the slot-space twin of ``canonical_edge``."""
    return (i, j) if i <= j else (j, i)


def _directed_slot_edge_key(i: int, j: int) -> Tuple[int, int]:
    """Oriented slot-pair key for directed graphs (no canonicalisation)."""
    return (i, j)


class EdgeScoreRegistry:
    """Slot-pair edge scores as a flat float64 array behind a dict facade.

    The vectorized accumulation folds a whole level's edge contributions
    into one scatter-add, which needs every edge score to live at a stable
    integer id.  The registry assigns each slot pair a *permanent* id on
    first sight (ids survive the edge being removed and re-added) and keeps
    the scores in :attr:`values` with an :attr:`active` mask tracking which
    pairs currently "exist" as dict keys.  These ids are the kernel's CSR
    entry ids, so every patched snapshot of a batch scatters straight into
    the same accumulators.

    The mapping face reproduces plain-dict semantics for the label
    facade: ``pop`` deactivates *and zeroes* the slot,
    so a re-added edge starts from the same ``get(key, 0.0)`` baseline the
    dict backend sees.  Iteration runs in ascending id order — a permuted
    key order relative to the dict backend, which only equality / per-key
    comparisons observe (none of the consumers depend on insertion order).
    """

    __slots__ = ("_id_of", "_pairs", "values", "active", "_count")

    def __init__(self) -> None:
        self._id_of: Dict[Tuple[int, int], int] = {}
        self._pairs: List[Tuple[int, int]] = []
        self.values = np.zeros(8, dtype=np.float64)
        self.active = np.zeros(8, dtype=np.bool_)
        self._count = 0

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

    # -- id management (cohort sweep) ----------------------------------- #
    def ensure_id(self, pair: Tuple[int, int]) -> int:
        """Permanent id of ``pair``, assigning one on first sight."""
        edge_id = self._id_of.get(pair)
        if edge_id is None:
            edge_id = len(self._pairs)
            self._id_of[pair] = edge_id
            self._pairs.append(pair)
            self._ensure_capacity(edge_id + 1)
        return edge_id

    def activate_written(self, ids: np.ndarray) -> None:
        """Make every id in ``ids`` an active key before it is scattered to.

        Freshly activated slots start from 0.0 — the ``get(key, 0.0)``
        baseline the dict backend's accumulation uses for unseen edges.
        """
        inactive = ids[~self.active[ids]]
        if inactive.size:
            fresh = np.unique(inactive)
            self.values[fresh] = 0.0
            self.active[fresh] = True
            self._count += int(fresh.size)

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
        self._count = count

    # -- mapping face (label facade) ------------------------------------ #
    def get(self, key: Tuple[int, int], default=None):
        edge_id = self._id_of.get(key)
        if edge_id is None or not self.active[edge_id]:
            return default
        return float(self.values[edge_id])

    def __getitem__(self, key: Tuple[int, int]) -> float:
        edge_id = self._id_of.get(key)
        if edge_id is None or not self.active[edge_id]:
            raise KeyError(key)
        return float(self.values[edge_id])

    def __setitem__(self, key: Tuple[int, int], value: float) -> None:
        edge_id = self.ensure_id(key)
        if not self.active[edge_id]:
            self.active[edge_id] = True
            self._count += 1
        self.values[edge_id] = value

    def setdefault(self, key: Tuple[int, int], default: float = 0.0) -> float:
        edge_id = self.ensure_id(key)
        if not self.active[edge_id]:
            self.active[edge_id] = True
            self._count += 1
            self.values[edge_id] = default
        return float(self.values[edge_id])

    def pop(self, key: Tuple[int, int], default=None):
        edge_id = self._id_of.get(key)
        if edge_id is None or not self.active[edge_id]:
            return default
        value = float(self.values[edge_id])
        self.active[edge_id] = False
        self.values[edge_id] = 0.0
        self._count -= 1
        return value

    def __contains__(self, key: Tuple[int, int]) -> bool:
        edge_id = self._id_of.get(key)
        return edge_id is not None and bool(self.active[edge_id])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        active = self.active
        for edge_id, pair in enumerate(self._pairs):
            if active[edge_id]:
                yield pair

    def __len__(self) -> int:
        return self._count

    def keys(self) -> List[Tuple[int, int]]:
        return list(self)

    def items(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        active = self.active
        values = self.values
        for edge_id, pair in enumerate(self._pairs):
            if active[edge_id]:
                yield pair, float(values[edge_id])

    def copy(self) -> Dict[Tuple[int, int], float]:
        return dict(self.items())


# --------------------------------------------------------------------------- #
# Flat (slot-indexed) BD records
# --------------------------------------------------------------------------- #
class FlatSourceData:
    """Slot-indexed ``BD[s]`` record over three column arrays.

    ``source`` is the source *slot*; the arrays are the store's own views
    of the record (``-1`` distance = unreachable), so mutating them *is*
    persisting the record.
    """

    __slots__ = ("source", "distance_array", "sigma_array", "delta_array")

    def __init__(
        self,
        source_slot: int,
        distance: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
    ) -> None:
        self.source = source_slot
        self.distance_array = distance
        self.sigma_array = sigma
        self.delta_array = delta


# --------------------------------------------------------------------------- #
# Label-keyed facades (what the framework exposes as its score mappings)
# --------------------------------------------------------------------------- #
class LabelVertexScores:
    """Label-keyed mapping facade over the kernel's vertex-score array.

    Behaves like the dict backend's ``{vertex: score}`` dictionary for
    every operation the framework (and its callers) perform, while the
    values live in one flat float64 array.
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "ArrayKernel") -> None:
        self._kernel = kernel

    def _slot(self, label: Vertex) -> int:
        try:
            return self._kernel.index.slot(label)
        except Exception:
            raise KeyError(label) from None

    def __getitem__(self, label: Vertex) -> float:
        return float(self._kernel._vscore[self._slot(label)])

    def get(self, label: Vertex, default=None):
        if label not in self._kernel.index:
            return default
        return float(self._kernel._vscore[self._kernel.index.slot(label)])

    def __setitem__(self, label: Vertex, value: float) -> None:
        self._kernel._vscore[self._slot(label)] = value

    def setdefault(self, label: Vertex, default: float = 0.0) -> float:
        return float(self._kernel._vscore[self._slot(label)])

    def __contains__(self, label: Vertex) -> bool:
        return label in self._kernel.index

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._kernel.index.vertices())

    def __len__(self) -> int:
        return len(self._kernel.index)

    def keys(self):
        return self._kernel.index.vertices()

    def items(self):
        vscore = self._kernel._vscore
        for slot, label in enumerate(self._kernel.index.vertices()):
            yield label, float(vscore[slot])

    def copy(self) -> Dict[Vertex, float]:
        return dict(self.items())


class LabelEdgeScores:
    """Label-keyed mapping facade over the kernel's slot-pair edge scores."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "ArrayKernel") -> None:
        self._kernel = kernel

    def _slot_key(self, key: Tuple[Vertex, Vertex]) -> Tuple[int, int]:
        u, v = key
        index = self._kernel.index
        try:
            return self._kernel.slot_edge_key(index.slot(u), index.slot(v))
        except Exception:
            raise KeyError(key) from None

    def _label_key(self, slot_key: Tuple[int, int]) -> Tuple[Vertex, Vertex]:
        index = self._kernel.index
        u = index.vertex(slot_key[0])
        v = index.vertex(slot_key[1])
        if self._kernel.directed:
            return (u, v)
        return canonical_edge(u, v)

    def __getitem__(self, key) -> float:
        slot_key = self._slot_key(key)
        try:
            return self._kernel._escore[slot_key]
        except KeyError:
            raise KeyError(key) from None

    def get(self, key, default=None):
        try:
            slot_key = self._slot_key(key)
        except KeyError:
            return default
        return self._kernel._escore.get(slot_key, default)

    def __setitem__(self, key, value: float) -> None:
        self._kernel._escore[self._slot_key(key)] = value

    def setdefault(self, key, default: float = 0.0) -> float:
        return self._kernel._escore.setdefault(self._slot_key(key), default)

    def pop(self, key, default=None):
        try:
            slot_key = self._slot_key(key)
        except KeyError:
            return default
        return self._kernel._escore.pop(slot_key, default)

    def __contains__(self, key) -> bool:
        try:
            slot_key = self._slot_key(key)
        except KeyError:
            return False
        return slot_key in self._kernel._escore

    def __iter__(self) -> Iterator[Tuple[Vertex, Vertex]]:
        for slot_key in self._kernel._escore:
            yield self._label_key(slot_key)

    def __len__(self) -> int:
        return len(self._kernel._escore)

    def keys(self):
        return list(self)

    def items(self):
        for slot_key, value in self._kernel._escore.items():
            yield self._label_key(slot_key), value

    def copy(self) -> Dict[Tuple[Vertex, Vertex], float]:
        return dict(self.items())


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
    array, the slot-pair edge-score dict, and the link to a *column store*
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
        #: When set to a dict, the cohort sweep accumulates per-phase
        #: wall-clock seconds into the keys "classify" / "repair" /
        #: "accumulate" (benchmark instrumentation, off by default).
        self.phase_timings: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #
    # Facades
    # ------------------------------------------------------------------ #
    def vertex_score_view(self) -> LabelVertexScores:
        return LabelVertexScores(self)

    def edge_score_view(self) -> LabelEdgeScores:
        return LabelEdgeScores(self)

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
    # Records
    # ------------------------------------------------------------------ #
    def load(self, source: Vertex) -> FlatSourceData:
        """Open ``source``'s record for repair as zero-copy store views."""
        distance, sigma, delta = self._store.record_columns(source, writable=True)
        return FlatSourceData(self.index.slot(source), distance, sigma, delta)

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
        if not self._store.columns_in_place:
            raise ConfigurationError(
                f"store {type(self._store).__name__} has no live column "
                "matrices (columns_in_place is false): the arrays backend "
                "repairs records in place and cannot sweep it"
            )
        self._sync_capacity()
        n = len(self.index)
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
                    n,
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

    #: Upper bound on (cohort size × n) pairs swept at once; larger
    #: cohorts run in source-ordered slabs, which keeps the deferred score
    #: streams' source-major application order.
    COHORT_PAIR_BUDGET = 8_000_000

    def repair_update_cohort(
        self,
        records: Sequence[FlatSourceData],
        ordinals: Sequence[int],
        update_index: int,
        result: UpdateResult,
    ) -> None:
        """Repair one update for a whole cohort of loaded records at once.

        Classification runs per source (:func:`classify_flat`); the repair
        and accumulation phases — the sweep's hot path — run over the
        entire cohort in (source, vertex) pair space (the ``*_cohort``
        routines and :func:`accumulate_cohort`).  ``ordinals`` are the
        records' positions in the batch sweep's source order: shared-score
        writes are deferred into a batch-wide stream keyed on them, and
        :meth:`flush_cohort_scores` replays the dict backend's source-outer
        float order once the whole batch has swept.  The cohort's per-case
        counts and summed work are folded into ``result`` in one call.
        """
        state = self._batch_states[update_index]
        timings = self.phase_timings
        if timings is not None:
            tick = perf_counter()
        n = state.n
        if self._cohort_streams is None:
            self._cohort_streams = CohortScoreStreams()

        case_counts: Dict[UpdateCase, int] = {}
        job_meta: List[Tuple[int, FlatSourceData, UpdateCase, int, int]] = []
        for ordinal, data in zip(ordinals, records):
            case, high, low = classify_flat(state, data.distance_array[:n])
            case_counts[case] = case_counts.get(case, 0) + 1
            if case is not UpdateCase.SKIP:
                job_meta.append((int(ordinal), data, case, high, low))
        if timings is not None:
            now = perf_counter()
            timings["classify"] = timings.get("classify", 0.0) + (now - tick)

        affected = touched = disconnected = 0
        slab = max(1, self.COHORT_PAIR_BUDGET // max(n, 1))
        for start in range(0, len(job_meta), slab):
            work = self._repair_cohort_slab(state, job_meta[start : start + slab])
            affected += work[0]
            touched += work[1]
            disconnected += work[2]
        result.fold(case_counts, affected, touched, disconnected)

    def _repair_cohort_slab(
        self,
        state: FlatBatchState,
        metas: List[Tuple[int, FlatSourceData, UpdateCase, int, int]],
    ) -> Tuple[int, int, int]:
        """Repair and accumulate one source-ordered slab of cohort jobs.

        Every repair class runs as one cohort walk over (job, slot) pairs —
        same-level jobs via :func:`repair_same_level_cohort`, structural
        ones via :func:`repair_addition_structural_cohort` /
        :func:`repair_removal_structural_cohort` — mutating the slab's
        stacked work columns while pristine ``old_*`` gathers keep the
        pre-update rows.  All classes feed merged ``(k, slot, level)`` plan
        chunks into one :func:`accumulate_cohort` sweep.

        Only the touched pairs are written back.  Distances and path counts
        change only on affected pairs (every pair a repair walk writes is
        marked affected) and on disconnected pairs; dependencies change only
        on the pairs the accumulation tracks — a superset of the affected
        pairs, which seed it — and on disconnected pairs.  So writing all
        three columns over tracked ∪ disconnected pairs leaves every record
        exactly as a whole-row write would, and the σ-overflow check, which
        must run before anything reaches the store, only has affected pairs
        to inspect.  Returns the slab's ``(affected, touched,
        disconnected)`` pair counts.
        """
        timings = self.phase_timings
        if timings is not None:
            tick = perf_counter()
        n = state.n
        m = len(metas)
        dist2d, sig2d, delta2d = self._store.column_matrices()
        rows = np.array(
            [self._store.row_of_source_slot(meta[1].source) for meta in metas],
            dtype=np.int64,
        )
        sources = np.array([meta[1].source for meta in metas], dtype=np.int64)
        highs = np.array([meta[3] for meta in metas], dtype=np.int64)
        lows = np.array([meta[4] for meta in metas], dtype=np.int64)
        ordinals = np.array([meta[0] for meta in metas], dtype=np.int64)
        pair_first = np.empty(m * n, dtype=np.int64)
        pair_pos = np.empty(m * n, dtype=np.int64)

        # Fancy row gathers = fresh work copies of every job's columns; the
        # ``old_*`` stacks stay pristine for the accumulate sweep to read.
        work_distance = dist2d[rows, :n]
        work_sigma = sig2d[rows, :n]
        new_delta = delta2d[rows, :n]
        old_distance = work_distance.copy()
        old_sigma = work_sigma.copy()
        old_delta = new_delta.copy()
        affected_rows = np.zeros((m, n), dtype=np.bool_)

        tri_k: List[np.ndarray] = []
        tri_s: List[np.ndarray] = []
        tri_l: List[np.ndarray] = []
        rem_k: List[int] = []
        rem_red: List[float] = []
        same_add: List[int] = []
        add_struct: List[int] = []
        same_rem: List[int] = []
        rem_struct: List[int] = []
        for k, (_ordinal, _data, case, _high, _low) in enumerate(metas):
            if case is UpdateCase.ADD_NO_STRUCTURE:
                same_add.append(k)
            elif case is UpdateCase.ADD_STRUCTURAL:
                add_struct.append(k)
            elif case is UpdateCase.REMOVE_NO_STRUCTURE:
                same_rem.append(k)
            else:  # UpdateCase.REMOVE_STRUCTURAL
                rem_struct.append(k)

        # Every removal seeds the sweep with the removed edge's pre-update
        # dependency — python-scalar operand order of the dict backend's
        # _removed_edge_dependency (int division is correctly rounded past
        # 2**53).
        for k in same_rem + rem_struct:
            high = int(highs[k])
            low = int(lows[k])
            rem_k.append(k)
            rem_red.append(
                int(old_sigma[k, high]) / int(old_sigma[k, low])
                * (1.0 + float(old_delta[k, low]))
            )

        disc_pid = np.empty(0, dtype=np.int64)
        if same_add:
            ks = np.array(same_add, dtype=np.int64)
            ck, cs, cl = repair_same_level_cohort(
                state, ks, highs[ks], lows[ks], 1,
                old_distance, old_sigma, work_sigma, affected_rows,
                pair_first,
            )
            tri_k.append(ck)
            tri_s.append(cs)
            tri_l.append(cl)
        if same_rem:
            ks = np.array(same_rem, dtype=np.int64)
            ck, cs, cl = repair_same_level_cohort(
                state, ks, highs[ks], lows[ks], -1,
                old_distance, old_sigma, work_sigma, affected_rows,
                pair_first,
            )
            tri_k.append(ck)
            tri_s.append(cs)
            tri_l.append(cl)
        if add_struct:
            ks = np.array(add_struct, dtype=np.int64)
            ck, cs, cl = repair_addition_structural_cohort(
                state, ks, highs[ks], lows[ks],
                old_distance, work_distance, work_sigma, affected_rows,
                pair_first,
            )
            tri_k.append(ck)
            tri_s.append(cs)
            tri_l.append(cl)
        if rem_struct:
            ks = np.array(rem_struct, dtype=np.int64)
            ck, cs, cl, disc_pid = repair_removal_structural_cohort(
                state, ks, highs[ks], lows[ks],
                old_distance, work_distance, work_sigma, affected_rows,
                pair_first, pair_pos,
            )
            tri_k.append(ck)
            tri_s.append(cs)
            tri_l.append(cl)
        empty = np.empty(0, dtype=np.int64)
        chunk_k = np.concatenate(tri_k) if tri_k else empty
        chunk_s = np.concatenate(tri_s) if tri_s else empty
        disc_k = disc_pid // n
        if timings is not None:
            now = perf_counter()
            timings["repair"] = timings.get("repair", 0.0) + (now - tick)
            tick = now

        touched_pid = accumulate_cohort(
            state,
            work_distance,
            work_sigma,
            old_distance,
            old_sigma,
            new_delta,
            old_delta,
            None if state.directed else affected_rows,
            sources,
            highs,
            lows,
            ordinals,
            chunk_k,
            chunk_s,
            np.concatenate(tri_l) if tri_l else empty,
            np.array(rem_k, dtype=np.int64),
            np.array(rem_red, dtype=np.float64),
            np.full(len(rem_k), state.edge_id, dtype=np.int64),
            disc_k,
            disc_pid - disc_k * n,
            self._cohort_streams,
            state.is_addition,
            pair_first,
        )
        wd_flat = work_distance.reshape(-1)
        ws_flat = work_sigma.reshape(-1)
        nd_flat = new_delta.reshape(-1)
        if disc_pid.size:
            ws_flat[disc_pid] = 0
            nd_flat[disc_pid] = 0.0
        affected_sigma = ws_flat[chunk_k * n + chunk_s]
        if affected_sigma.size and int(affected_sigma.min()) < 0:
            bad = int(chunk_k[np.argmin(affected_sigma)])
            raise StoreCorruptedError(
                f"shortest-path count from slot {int(sources[bad])} overflowed "
                "the int64 sigma column during an incremental repair"
            )
        written = np.concatenate((touched_pid, disc_pid))
        written_k = written // n
        written_rows = rows[written_k]
        written_slots = written - written_k * n
        dist2d[written_rows, written_slots] = wd_flat[written]
        sig2d[written_rows, written_slots] = ws_flat[written]
        delta2d[written_rows, written_slots] = nd_flat[written]
        if timings is not None:
            now = perf_counter()
            timings["accumulate"] = timings.get("accumulate", 0.0) + (now - tick)
        return chunk_k.size, touched_pid.size, disc_pid.size

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
        self, sources: Sequence[Vertex], batch: Sequence[EdgeUpdate]
    ) -> Dict[Vertex, int]:
        """First update of the batch that may affect each source, batched.

        Semantics are exactly those of the scalar per-(source, update) peek
        — undirected: skip iff both endpoint distances are equal (with
        "unreachable" compared as ``-1 == -1``); directed (edge ``u -> v``):
        skip iff the tail is unreachable or the head is no farther than the
        tail — only the evaluation is batched.  Returns a map from every
        possibly-affected source to the index of the first update whose
        peek fails; sources absent from the map are provably skipped for
        the whole batch, and a present source is provably SKIP for every
        update before its first index (a passing peek leaves the record
        untouched, so the induction the scalar peek relies on holds per
        prefix).
        """
        if not sources or not batch:
            return {}
        endpoint_slots: List[int] = []
        for update in batch:
            endpoint_slots.append(self.index.slot(update.u))
            endpoint_slots.append(self.index.slot(update.v))
        source_slots = [self.index.slot(source) for source in sources]
        block = self._store.peek_distance_block(source_slots, endpoint_slots)
        us = block[:, 0::2]
        vs = block[:, 1::2]
        if self.directed:
            affected = (us != UNREACHABLE) & ((vs == UNREACHABLE) | (vs > us))
        else:
            affected = us != vs
        any_hit = affected.any(axis=1)
        firsts = np.argmax(affected, axis=1)
        return {
            source: int(first)
            for source, hit, first in zip(
                sources, any_hit.tolist(), firsts.tolist()
            )
            if hit
        }

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
