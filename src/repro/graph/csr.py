"""Compact CSR (compressed sparse row) representation of the evolving graph.

The array-native compute kernel (:mod:`repro.core.kernel`) works on integer
vertex *slots* (assigned by :class:`repro.storage.index.VertexIndex`, the
same slots the on-disk columnar records use) instead of arbitrary hashable
labels.  :class:`CSRGraph` is the graph structure behind it:

* mutable adjacency lists of ``int`` slots for the incremental repair
  loops (append on add, remove-first-occurrence on delete — exactly the
  insertion-order semantics of :class:`repro.graph.graph.Graph`'s
  ordered-dict adjacency, so the two structures stay in lockstep when fed
  the same mutation stream and every traversal visits neighbors in the
  same order — the property that makes the ``arrays`` and ``dicts``
  framework backends bit-identical);
* compiled ``indptr`` / ``indices`` numpy arrays for the vectorized
  Brandes bootstrap, rebuilt lazily and therefore *amortized*: any number
  of edge mutations between two vectorized accesses costs a single
  O(n + m) rebuild.

The compiled form also carries per-entry edge ids (``edge_ids``), which
lets the vectorized dependency accumulation fold a whole level's
edge-betweenness contributions into a flat per-edge score array with one
``np.add.at`` instead of one dictionary update per DAG edge.

Directed graphs keep a **predecessor mirror**: a second set of adjacency
lists (and compiled ``in_indptr`` / ``in_indices`` / ``in_edge_ids``
arrays) recording in-neighbors in the same insertion order as the label
graph's ``_pred`` dictionaries.  The forward BFS walks the out-CSR and the
dependency accumulation walks the in-CSR; for undirected graphs both
mirrors are one and the same structure, so nothing changes for the
existing undirected paths (same objects, same orders, same bits).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.storage.index import VertexIndex

#: dtype of the compiled indptr/indices/edge_ids arrays.
INDEX_DTYPE = np.dtype(np.int64)


class CSRGraph:
    """Int-slot adjacency with lazily compiled CSR arrays.

    Slots are dense integers ``0 .. num_vertices - 1``; the caller (the
    kernel) owns the mapping between labels and slots.  Mutations are O(1)
    amortized on the adjacency lists and invalidate the compiled arrays;
    the next access to :meth:`compiled` rebuilds them once.

    When ``directed`` is true the successor and predecessor lists are
    distinct (``adj`` holds out-neighbors, ``in_adj`` in-neighbors); when
    false they are the *same* list objects, exactly like
    :class:`~repro.graph.graph.Graph` aliasing ``_pred`` to ``_succ``.
    """

    __slots__ = (
        "_directed",
        "_adj",
        "_in_adj",
        "_num_edges",
        "_indptr",
        "_indices",
        "_edge_ids",
        "_in_indptr",
        "_in_indices",
        "_in_edge_ids",
        "_edge_pairs",
        "_compiled",
        "rebuild_count",
    )

    def __init__(self, num_vertices: int = 0, directed: bool = False) -> None:
        self._directed = directed
        self._adj: List[List[int]] = [[] for _ in range(num_vertices)]
        # Aliasing keeps the undirected mirrors in lockstep with a single
        # update, mirroring Graph's _pred-is-_succ trick.
        self._in_adj: List[List[int]] = (
            [[] for _ in range(num_vertices)] if directed else self._adj
        )
        self._num_edges = 0
        self.rebuild_count = 0
        self._invalidate()

    @classmethod
    def from_graph(cls, graph: Graph, index: "VertexIndex") -> "CSRGraph":
        """Mirror ``graph`` into slot space using ``index``'s slot assignment.

        Every vertex of ``graph`` must already be indexed; slots the index
        knows but the graph lacks (e.g. vertices registered for another
        worker's partition) become isolated slots.  Neighbor order is the
        graph's (insertion) order, so traversals of the mirror replay the
        label graph's traversals exactly — out-lists mirror the successor
        dictionaries and, for directed graphs, in-lists the predecessor
        dictionaries.
        """
        csr = cls(len(index), directed=graph.directed)
        slot_of = {label: slot for slot, label in enumerate(index.vertices())}
        adj = csr._adj
        for label in graph.vertices():
            adj[slot_of[label]] = [slot_of[nbr] for nbr in graph.out_neighbors(label)]
        if graph.directed:
            in_adj = csr._in_adj
            for label in graph.vertices():
                in_adj[slot_of[label]] = [
                    slot_of[nbr] for nbr in graph.in_neighbors(label)
                ]
            csr._num_edges = sum(len(neighbors) for neighbors in adj)
        else:
            csr._num_edges = sum(len(neighbors) for neighbors in adj) // 2
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
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges (directed edges counted individually)."""
        return self._num_edges

    # ------------------------------------------------------------------ #
    # Mutation (O(degree) worst case, order-preserving)
    # ------------------------------------------------------------------ #
    def add_vertex(self) -> int:
        """Append a new isolated slot and return it."""
        self._adj.append([])
        if self._directed:
            self._in_adj.append([])
        self._invalidate()
        return len(self._adj) - 1

    def ensure_vertices(self, count: int) -> None:
        """Grow to at least ``count`` slots (no-op when already that big)."""
        while len(self._adj) < count:
            self.add_vertex()

    def add_edge(self, i: int, j: int) -> None:
        """Add the edge ``(i, j)`` (``i -> j`` if directed; caller guarantees absence)."""
        self._adj[i].append(j)
        self._in_adj[j].append(i)
        self._num_edges += 1
        self._invalidate()

    def remove_edge(self, i: int, j: int) -> None:
        """Remove the edge ``(i, j)`` (``i -> j`` if directed; caller guarantees presence)."""
        self._adj[i].remove(j)
        self._in_adj[j].remove(i)
        self._num_edges -= 1
        self._invalidate()

    def clone(self) -> "CSRGraph":
        """Deep copy of the adjacency (compiled arrays are not carried over).

        The batch kernel rolls a clone forward through a batch to compile
        per-update snapshots without disturbing the live mirror.
        """
        other = CSRGraph(0, directed=self._directed)
        other._adj = [list(neighbors) for neighbors in self._adj]
        other._in_adj = (
            [list(parents) for parents in self._in_adj]
            if self._directed
            else other._adj
        )
        other._num_edges = self._num_edges
        return other

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def neighbors(self, i: int) -> List[int]:
        """Out-neighbors of slot ``i`` in insertion order.  Do not mutate."""
        return self._adj[i]

    def in_neighbors(self, i: int) -> List[int]:
        """In-neighbors of slot ``i`` (same list as :meth:`neighbors` when undirected)."""
        return self._in_adj[i]

    def degree(self, i: int) -> int:
        """Out-degree of slot ``i``."""
        return len(self._adj[i])

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``(i, j)`` (``i -> j`` if directed) is present."""
        return j in self._adj[i]

    # ------------------------------------------------------------------ #
    # Compiled CSR arrays (lazy, amortized rebuild)
    # ------------------------------------------------------------------ #
    def compiled(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int]]]:
        """Return ``(indptr, indices, edge_ids, edge_pairs)``, rebuilding if stale.

        ``indices[indptr[i]:indptr[i + 1]]`` are the out-neighbors of slot
        ``i`` in insertion order; ``edge_ids`` maps every entry to its edge
        id, and ``edge_pairs[e]`` is the slot pair of edge ``e`` — the
        canonical ``(min, max)`` pair for undirected graphs, the oriented
        ``(tail, head)`` pair for directed ones.  Edge ids are assigned in
        first-encounter order scanning slots ascending, which matches the
        first-encounter order of :meth:`repro.graph.graph.Graph.edges` on
        the mirrored label graph.
        """
        if not self._compiled:
            self._rebuild()
        return self._indptr, self._indices, self._edge_ids, self._edge_pairs

    def compiled_in(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(in_indptr, in_indices, in_edge_ids)``, rebuilding if stale.

        ``in_indices[in_indptr[i]:in_indptr[i + 1]]`` are the in-neighbors
        of slot ``i`` in insertion order and ``in_edge_ids`` maps every
        entry ``p -> i`` to the id of that edge in :meth:`compiled`'s
        numbering.  For undirected graphs these are the *same arrays* as
        the out-CSR (shared adjacency), so existing undirected callers see
        identical objects.
        """
        if not self._compiled:
            self._rebuild()
        return self._in_indptr, self._in_indices, self._in_edge_ids

    # ------------------------------------------------------------------ #
    # Shared-memory export / attach
    # ------------------------------------------------------------------ #
    def export_compiled(self, allocator) -> Tuple[list, dict]:
        """Materialize the compiled CSR into allocator buffers.

        Returns ``(buffers, payload)``: the buffers are owned by the caller
        (release them when every attacher is done) and the payload is a
        compact picklable bundle of :class:`~repro.storage.buffers.ShmDescriptor`
        entries plus the counts needed to re-materialize the mirror —
        what crosses a pipe instead of an edge list.  Undirected graphs
        export only the out-family (the in-mirror aliases it by
        construction); directed graphs export both.
        """
        indptr, indices, edge_ids, edge_pairs = self.compiled()
        pairs = np.asarray(edge_pairs, dtype=INDEX_DTYPE).reshape(
            len(edge_pairs), 2
        )
        named = {
            "indptr": indptr,
            "indices": indices,
            "edge_ids": edge_ids,
            "edge_pairs": pairs,
        }
        if self._directed:
            in_indptr, in_indices, in_edge_ids = self.compiled_in()
            named["in_indptr"] = in_indptr
            named["in_indices"] = in_indices
            named["in_edge_ids"] = in_edge_ids
        buffers = []
        descriptors = {}
        for key, array in named.items():
            buffer = allocator.empty(array.shape, array.dtype)
            if array.size:
                buffer.array[:] = array
            buffers.append(buffer)
            descriptors[key] = buffer.descriptor().to_payload()
        payload = {
            "directed": self._directed,
            "num_vertices": self.num_vertices,
            "num_edges": self._num_edges,
            "arrays": descriptors,
        }
        return buffers, payload

    @classmethod
    def attach_compiled(cls, payload: dict) -> Tuple["CSRGraph", list]:
        """Re-materialize an exported mirror from its segment descriptors.

        The compiled arrays are attached **read-only** and preset (no
        rebuild), while the mutable adjacency lists are decoded from them —
        in CSR order, which is insertion order, so traversals replay the
        exporter's exactly.  Returns ``(csr, buffers)``; the caller closes
        the attachment buffers when done (the first mutation recompiles
        into private arrays anyway).
        """
        from repro.storage.buffers import ShmDescriptor, attach as attach_buffer

        buffers = []
        arrays = {}
        try:
            for key, entry in payload["arrays"].items():
                buffer = attach_buffer(ShmDescriptor.from_payload(entry))
                buffers.append(buffer)
                arrays[key] = buffer.array
        except Exception:
            for buffer in buffers:
                buffer.release()
            raise
        directed = bool(payload["directed"])
        n = int(payload["num_vertices"])
        csr = cls(0, directed=directed)
        indptr, indices = arrays["indptr"], arrays["indices"]
        csr._adj = [
            [int(j) for j in indices[indptr[i] : indptr[i + 1]]]
            for i in range(n)
        ]
        if directed:
            in_indptr, in_indices = arrays["in_indptr"], arrays["in_indices"]
            csr._in_adj = [
                [int(j) for j in in_indices[in_indptr[i] : in_indptr[i + 1]]]
                for i in range(n)
            ]
        else:
            csr._in_adj = csr._adj
        csr._num_edges = int(payload["num_edges"])
        csr._indptr = indptr
        csr._indices = indices
        csr._edge_ids = arrays["edge_ids"]
        csr._edge_pairs = [(int(a), int(b)) for a, b in arrays["edge_pairs"]]
        if directed:
            csr._in_indptr = arrays["in_indptr"]
            csr._in_indices = arrays["in_indices"]
            csr._in_edge_ids = arrays["in_edge_ids"]
        else:
            csr._in_indptr = indptr
            csr._in_indices = indices
            csr._in_edge_ids = arrays["edge_ids"]
        csr._compiled = True
        return csr, buffers

    def to_label_graph(self, labels: Sequence) -> Graph:
        """Order-exact label :class:`Graph` over ``labels[slot]`` naming.

        The inverse of :meth:`from_graph` for fully populated mirrors:
        adjacency (and, when directed, predecessor) iteration order is the
        slot lists' order, which :meth:`from_graph` took from the label
        graph — so a round trip reproduces the original graph's traversal
        order bit-for-bit.
        """
        succ = {
            labels[i]: [labels[j] for j in row]
            for i, row in enumerate(self._adj)
        }
        pred = (
            {
                labels[i]: [labels[j] for j in row]
                for i, row in enumerate(self._in_adj)
            }
            if self._directed
            else None
        )
        return Graph.from_adjacency_payload(
            {"succ": succ, "pred": pred}, directed=self._directed
        )

    def _invalidate(self) -> None:
        self._compiled = False
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._edge_ids: Optional[np.ndarray] = None
        self._in_indptr: Optional[np.ndarray] = None
        self._in_indices: Optional[np.ndarray] = None
        self._in_edge_ids: Optional[np.ndarray] = None
        self._edge_pairs: List[Tuple[int, int]] = []

    def _compile_lists(
        self, lists: List[List[int]]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """CSR-compile one family of adjacency lists (no edge ids yet)."""
        n = len(lists)
        degrees = np.fromiter(
            (len(neighbors) for neighbors in lists), dtype=INDEX_DTYPE, count=n
        )
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=INDEX_DTYPE)
        cursor = 0
        for neighbors in lists:
            for j in neighbors:
                indices[cursor] = j
                cursor += 1
        return indptr, indices, total

    def _rebuild(self) -> None:
        indptr, indices, total = self._compile_lists(self._adj)
        edge_ids = np.empty(total, dtype=INDEX_DTYPE)
        id_of: Dict[Tuple[int, int], int] = {}
        cursor = 0
        for i, neighbors in enumerate(self._adj):
            for j in neighbors:
                if self._directed:
                    pair = (i, j)
                else:
                    pair = (i, j) if i <= j else (j, i)
                edge_id = id_of.get(pair)
                if edge_id is None:
                    edge_id = len(id_of)
                    id_of[pair] = edge_id
                edge_ids[cursor] = edge_id
                cursor += 1
        self._indptr = indptr
        self._indices = indices
        self._edge_ids = edge_ids
        self._edge_pairs = list(id_of)
        if self._directed:
            in_indptr, in_indices, in_total = self._compile_lists(self._in_adj)
            in_edge_ids = np.empty(in_total, dtype=INDEX_DTYPE)
            cursor = 0
            for j, parents in enumerate(self._in_adj):
                for i in parents:
                    in_edge_ids[cursor] = id_of[(i, j)]
                    cursor += 1
            self._in_indptr = in_indptr
            self._in_indices = in_indices
            self._in_edge_ids = in_edge_ids
        else:
            self._in_indptr = indptr
            self._in_indices = indices
            self._in_edge_ids = edge_ids
        self._compiled = True
        self.rebuild_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return f"<CSRGraph {kind} |V|={self.num_vertices} |E|={self.num_edges}>"
