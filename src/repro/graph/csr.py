"""Compact CSR (compressed sparse row) representation of the evolving graph.

The array-native compute kernel (:mod:`repro.core.kernel`) works on integer
vertex *slots* (assigned by :class:`repro.storage.index.VertexIndex`, the
same slots the on-disk columnar records use) instead of arbitrary hashable
labels.  :class:`CSRGraph` is the graph structure behind it: ``indptr`` /
``indices`` numpy arrays plus per-entry edge ids (``edge_ids``), which let
the vectorized dependency accumulation fold a whole level's edge-betweenness
contributions into a flat per-edge score array with one ``np.add.at``.

The arrays are compiled from scratch once (:meth:`CSRGraph.from_graph`) and
then *patched* per mutation (:func:`with_edge` / :func:`without_edge`): an
addition inserts the neighbor at the end of its row, a removal deletes its
first occurrence — exactly the insertion-order semantics of
:class:`repro.graph.graph.Graph`'s ordered-dict adjacency, so the two
structures stay in lockstep when fed the same mutation stream and every
traversal visits neighbors in the same order (the property that makes the
``arrays`` and ``dicts`` framework backends bit-identical).  A patch costs
one O(n + m) array copy in numpy, never a Python pass over the adjacency,
and always produces *fresh* arrays: arrays handed out earlier are never
written, so callers may keep references to them as snapshots.

Directed graphs keep a **predecessor mirror**: a second family of compiled
arrays (``in_indptr`` / ``in_indices`` / ``in_edge_ids``) recording
in-neighbors in the same insertion order as the label graph's ``_pred``
dictionaries.  The forward BFS walks the out-CSR and the dependency
accumulation walks the in-CSR; for undirected graphs both families are one
and the same arrays, so nothing changes for the undirected paths (same
objects, same orders, same bits).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.storage.index import VertexIndex

#: dtype of the compiled indptr/indices/edge_ids arrays.
INDEX_DTYPE = np.dtype(np.int64)

#: One compiled CSR family: ``(indptr, indices, edge_ids)``.
Family = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _empty_family(num_vertices: int) -> Family:
    empty = np.empty(0, dtype=INDEX_DTYPE)
    return np.zeros(num_vertices + 1, dtype=INDEX_DTYPE), empty, empty


def _appended(family: Family, row: int, col: int, edge_id: int) -> Family:
    """``family`` with ``col`` (carrying ``edge_id``) appended to ``row``."""
    indptr, indices, edge_ids = family
    at = int(indptr[row + 1])
    shifted = indptr.copy()
    shifted[row + 1 :] += 1
    return shifted, np.insert(indices, at, col), np.insert(edge_ids, at, edge_id)


def _deleted(family: Family, row: int, col: int) -> Family:
    """``family`` without the first ``col`` of ``row``."""
    indptr, indices, edge_ids = family
    start = int(indptr[row])
    at = start + int(np.flatnonzero(indices[start : indptr[row + 1]] == col)[0])
    shifted = indptr.copy()
    shifted[row + 1 :] -= 1
    return shifted, np.delete(indices, at), np.delete(edge_ids, at)


def with_edge(
    out: Family, inn: Family, directed: bool, i: int, j: int, edge_id: int
) -> Tuple[Family, Family]:
    """The ``(out, in)`` families after adding edge ``(i, j)`` with id ``edge_id``.

    Undirected: ``j`` joins the end of row ``i`` and ``i`` the end of row
    ``j`` in the one shared family.  Directed: ``j`` joins the end of out-row
    ``i`` and ``i`` the end of in-row ``j``.  The inputs are not modified.
    """
    out = _appended(out, i, j, edge_id)
    if directed:
        return out, _appended(inn, j, i, edge_id)
    out = _appended(out, j, i, edge_id)
    return out, out


def without_edge(
    out: Family, inn: Family, directed: bool, i: int, j: int
) -> Tuple[Family, Family]:
    """The ``(out, in)`` families after removing edge ``(i, j)`` (see :func:`with_edge`)."""
    out = _deleted(out, i, j)
    if directed:
        return out, _deleted(inn, j, i)
    out = _deleted(out, j, i)
    return out, out


class CSRGraph:
    """Int-slot adjacency as compiled CSR arrays, patched in place of rebuilds.

    Slots are dense integers ``0 .. num_vertices - 1``; the caller (the
    kernel) owns the mapping between labels and slots.  Edge ids in the
    arrays are numbered by the from-scratch compile (first encounter,
    slots ascending); an added edge carries the id its caller passes, which
    is how the kernel keeps every entry on its permanent
    :class:`~repro.core.kernel.EdgeScoreRegistry` id.

    When ``directed`` is true the successor and predecessor families are
    distinct (out-neighbors and in-neighbors); when false they are the
    *same* arrays, exactly like :class:`~repro.graph.graph.Graph` aliasing
    ``_pred`` to ``_succ``.
    """

    __slots__ = (
        "_directed",
        "_out",
        "_in",
        "_edge_pairs",
        "_num_edges",
        "rebuild_count",
    )

    def __init__(self, num_vertices: int = 0, directed: bool = False) -> None:
        self._directed = directed
        self._out: Family = _empty_family(num_vertices)
        self._in: Family = (
            _empty_family(num_vertices) if directed else self._out
        )
        self._edge_pairs: List[Tuple[int, int]] = []
        self._num_edges = 0
        #: From-scratch compiles this mirror has run; patches never add one.
        self.rebuild_count = 0

    @classmethod
    def from_graph(cls, graph: Graph, index: "VertexIndex") -> "CSRGraph":
        """Compile ``graph`` into slot space using ``index``'s slot assignment.

        Every vertex of ``graph`` must already be indexed; slots the index
        knows but the graph lacks (e.g. vertices registered for another
        worker's partition) become isolated slots.  Neighbor order is the
        graph's (insertion) order, so traversals of the mirror replay the
        label graph's traversals exactly — out-rows mirror the successor
        dictionaries and, for directed graphs, in-rows the predecessor
        dictionaries.
        """
        n = len(index)
        width = max(n, 1)
        slot_of = {label: slot for slot, label in enumerate(index.vertices())}

        def compile_rows(neighbors) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """``(indptr, indices, row of every entry)`` of one family."""
            rows: List[List[int]] = [[] for _ in range(n)]
            for label in graph.vertices():
                rows[slot_of[label]] = [slot_of[nbr] for nbr in neighbors(label)]
            degrees = np.fromiter(map(len, rows), dtype=INDEX_DTYPE, count=n)
            indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.fromiter(
                chain.from_iterable(rows), dtype=INDEX_DTYPE, count=int(indptr[-1])
            )
            return indptr, indices, np.repeat(np.arange(n, dtype=INDEX_DTYPE), degrees)

        csr = cls(0, directed=graph.directed)
        indptr, indices, tails = compile_rows(graph.out_neighbors)
        if graph.directed:
            keys = tails * width + indices
        else:
            keys = np.minimum(tails, indices) * width + np.maximum(tails, indices)
        # Ids in first-encounter order over the entries (slots ascending,
        # each row in insertion order): rank the distinct keys by where
        # they first occur.
        distinct, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)
        rank = np.empty(distinct.size, dtype=INDEX_DTYPE)
        rank[by_first] = np.arange(distinct.size, dtype=INDEX_DTYPE)
        ordered = distinct[by_first]
        csr._edge_pairs = list(
            zip((ordered // width).tolist(), (ordered % width).tolist())
        )
        csr._num_edges = int(distinct.size)
        csr._out = csr._in = (indptr, indices, rank[inverse.reshape(-1)])
        if graph.directed:
            in_indptr, in_indices, heads = compile_rows(graph.in_neighbors)
            in_ids = rank[np.searchsorted(distinct, in_indices * width + heads)]
            csr._in = (in_indptr, in_indices, in_ids)
        csr.rebuild_count = 1
        return csr

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def directed(self) -> bool:
        """Whether the mirror is directed."""
        return self._directed

    @property
    def num_vertices(self) -> int:
        """Number of slots (including isolated ones)."""
        return len(self._out[0]) - 1

    @property
    def num_edges(self) -> int:
        """Number of edges (directed edges counted individually)."""
        return self._num_edges

    # ------------------------------------------------------------------ #
    # Mutation (one patch per call, order-preserving, fresh arrays)
    # ------------------------------------------------------------------ #
    def ensure_vertices(self, count: int) -> None:
        """Grow to at least ``count`` slots (no-op when already that big)."""
        extra = count - self.num_vertices
        if extra <= 0:
            return

        def grown(family: Family) -> Family:
            indptr, indices, edge_ids = family
            tail = np.full(extra, indptr[-1], dtype=INDEX_DTYPE)
            return np.concatenate((indptr, tail)), indices, edge_ids

        self._out = grown(self._out)
        self._in = grown(self._in) if self._directed else self._out

    def add_edge(self, i: int, j: int, edge_id: int) -> None:
        """Add the edge ``(i, j)`` (``i -> j`` if directed) under ``edge_id``.

        The caller guarantees the edge is absent.
        """
        self._out, self._in = with_edge(
            self._out, self._in, self._directed, i, j, edge_id
        )
        self._num_edges += 1

    def remove_edge(self, i: int, j: int) -> None:
        """Remove the edge ``(i, j)`` (``i -> j`` if directed; caller guarantees presence)."""
        self._out, self._in = without_edge(
            self._out, self._in, self._directed, i, j
        )
        self._num_edges -= 1

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def neighbors(self, i: int) -> List[int]:
        """Out-neighbors of slot ``i`` in insertion order."""
        indptr, indices, _edge_ids = self._out
        return indices[indptr[i] : indptr[i + 1]].tolist()

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``(i, j)`` (``i -> j`` if directed) is present."""
        return j in self.neighbors(i)

    def compiled(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int]]]:
        """Return ``(indptr, indices, edge_ids, edge_pairs)``.

        ``indices[indptr[i]:indptr[i + 1]]`` are the out-neighbors of slot
        ``i`` in insertion order and ``edge_ids`` maps every entry to its
        edge id.  ``edge_pairs[e]`` is the slot pair of every id ``e`` the
        from-scratch compile assigned — the canonical ``(min, max)`` pair
        for undirected graphs, the oriented ``(tail, head)`` pair for
        directed ones, numbered in first-encounter order scanning slots
        ascending, which matches the first-encounter order of
        :meth:`repro.graph.graph.Graph.edges` on the mirrored label graph.
        Ids of edges added later are whatever :meth:`add_edge` was given.
        """
        indptr, indices, edge_ids = self._out
        return indptr, indices, edge_ids, self._edge_pairs

    def compiled_in(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(in_indptr, in_indices, in_edge_ids)``.

        ``in_indices[in_indptr[i]:in_indptr[i + 1]]`` are the in-neighbors
        of slot ``i`` in insertion order and ``in_edge_ids`` maps every
        entry ``p -> i`` to the id of that edge in :meth:`compiled`'s
        numbering.  For undirected graphs these are the *same arrays* as
        the out-CSR (shared adjacency), so existing undirected callers see
        identical objects.
        """
        return self._in

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return f"<CSRGraph {kind} |V|={self.num_vertices} |E|={self.num_edges}>"
