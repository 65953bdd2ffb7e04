"""A mutable, unweighted graph with insertion-ordered adjacency storage.

The class supports both undirected and directed graphs.  The paper's
experiments are all undirected, but the full stack — static algorithms,
the incremental framework with either compute backend, the stores and the
parallel drivers — also operates on directed graphs, following out-links
during search and in-links during dependency accumulation as described in
Section 3 of the paper.

Design notes
------------
* Vertices are arbitrary hashable objects.
* Parallel edges and self loops are rejected: betweenness centrality over
  shortest paths is not well defined for self loops, and parallel edges do
  not change shortest-path structure.
* All mutation methods run in expected O(1) time (hash-dict operations), so
  replaying an edge stream is cheap compared to the centrality updates.
* Adjacency is stored in insertion-ordered dictionaries, so neighbor
  iteration order is *deterministic*: neighbors appear in the order their
  edges were added, and removing then re-adding an edge moves the neighbor
  to the end.  The array-native kernel
  (:class:`repro.graph.csr.CSRGraph`) replicates exactly these semantics,
  which is what makes the ``dicts`` and ``arrays`` backends of the
  framework bit-identical: both traverse neighbors in the same order, so
  every floating-point accumulation happens in the same sequence.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, KeysView, List, Optional, Set, Tuple

from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.types import Edge, Vertex, canonical_edge


class Graph:
    """Unweighted graph with O(1) edge insertion/removal.

    Parameters
    ----------
    directed:
        When ``True`` the graph is directed; edges are stored separately as
        out- and in-adjacency.  When ``False`` (default) the graph is
        undirected and the two adjacency views coincide.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    __slots__ = ("_directed", "_succ", "_pred", "_num_edges")

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        # Adjacency maps vertex -> insertion-ordered dict of neighbors
        # (values unused).  Dicts rather than sets so that iteration order
        # is deterministic and mirrorable by the CSR representation.
        self._succ: Dict[Vertex, Dict[Vertex, None]] = {}
        # For undirected graphs _pred is the same dict object as _succ, so a
        # single update keeps both views consistent.
        self._pred: Dict[Vertex, Dict[Vertex, None]] = {} if directed else self._succ
        # Kept by every method that changes adjacency, so ``num_edges`` is O(1).
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of edges currently in the graph."""
        return self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._succ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return f"<Graph {kind} |V|={self.num_vertices} |E|={self.num_edges}>"

    # ------------------------------------------------------------------ #
    # Vertex operations
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex) -> bool:
        """Add ``vertex``; return ``True`` if it was not already present."""
        if vertex in self._succ:
            return False
        self._succ[vertex] = {}
        if self._directed:
            self._pred[vertex] = {}
        return True

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all its incident edges."""
        if vertex not in self._succ:
            raise VertexNotFoundError(vertex)
        self._num_edges -= len(self._succ[vertex])
        if self._directed:
            self._num_edges -= len(self._pred[vertex])
        for neighbor in list(self._succ[vertex]):
            self._pred[neighbor].pop(vertex, None)
        if self._directed:
            for neighbor in list(self._pred[vertex]):
                self._succ[neighbor].pop(vertex, None)
            del self._pred[vertex]
        else:
            for neighbor in list(self._succ[vertex]):
                self._succ[neighbor].pop(vertex, None)
        del self._succ[vertex]

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if ``vertex`` is in the graph."""
        return vertex in self._succ

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._succ)

    # ------------------------------------------------------------------ #
    # Edge operations
    # ------------------------------------------------------------------ #
    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the edge ``(u, v)``; missing endpoints are created.

        Raises
        ------
        SelfLoopError
            If ``u == v``.
        EdgeExistsError
            If the edge is already present.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._succ[u]:
            raise EdgeExistsError(u, v)
        self._succ[u][v] = None
        self._pred[v][u] = None
        if not self._directed:
            self._succ[v][u] = None
        self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; endpoints are kept even if isolated."""
        if u not in self._succ:
            raise VertexNotFoundError(u)
        if v not in self._succ:
            raise VertexNotFoundError(v)
        if v not in self._succ[u]:
            raise EdgeNotFoundError(u, v)
        del self._succ[u][v]
        self._pred[v].pop(u, None)
        if not self._directed:
            self._succ[v].pop(u, None)
        self._num_edges -= 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is in the graph."""
        return u in self._succ and v in self._succ[u]

    # ------------------------------------------------------------------ #
    # Adjacency snapshots (order-exact roll/rewind support)
    # ------------------------------------------------------------------ #
    def adjacency_snapshot(self, vertices: Iterable[Vertex]) -> dict:
        """Capture presence and exact adjacency *order* of ``vertices``.

        Applying an inverse update is not an order-exact rewind: re-adding
        a removed edge appends it at the end of both endpoints' neighbor
        dicts instead of its original position.  Batch replay restores
        this snapshot instead, so every source's roll starts from the
        identical pre-batch iteration order.
        """
        snap: Dict[Vertex, Optional[tuple]] = {}
        for vertex in vertices:
            if vertex in self._succ:
                snap[vertex] = (
                    dict(self._succ[vertex]),
                    dict(self._pred[vertex]) if self._directed else None,
                )
            else:
                snap[vertex] = None
        return snap

    def restore_adjacency(self, snapshot: dict) -> None:
        """Reinstate adjacency captured by :meth:`adjacency_snapshot`.

        Vertices recorded as absent are removed again (stream births that
        were rolled in); edges between a snapshotted vertex and one outside
        the snapshot must not have changed in between — batch replay always
        snapshots both endpoints of every rolled edge.
        """
        # Only edges between snapshotted vertices change, so the out-degree
        # change over the snapshot counts each of them once (directed) or
        # twice (undirected).
        degree_change = 0
        for vertex, entry in snapshot.items():
            degree_change -= len(self._succ.get(vertex, ()))
            if entry is None:
                self._succ.pop(vertex, None)
                if self._directed:
                    self._pred.pop(vertex, None)
                continue
            succ, pred = entry
            degree_change += len(succ)
            self._succ[vertex] = dict(succ)
            if self._directed:
                self._pred[vertex] = dict(pred)
        self._num_edges += degree_change if self._directed else degree_change // 2

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over edges.

        For undirected graphs each edge is yielded exactly once, in
        canonical orientation.
        """
        if self._directed:
            for u, nbrs in self._succ.items():
                for v in nbrs:
                    yield (u, v)
        else:
            seen: Set[Edge] = set()
            for u, nbrs in self._succ.items():
                for v in nbrs:
                    edge = canonical_edge(u, v)
                    if edge not in seen:
                        seen.add(edge)
                        yield edge

    # ------------------------------------------------------------------ #
    # Adjacency views
    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: Vertex) -> KeysView[Vertex]:
        """Neighbors of ``vertex`` (out-neighbors if directed).

        The returned view behaves like a read-only set but iterates in
        deterministic insertion order (edge-addition order, with removed
        and re-added neighbors moved to the end).
        """
        try:
            return self._succ[vertex].keys()
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def out_neighbors(self, vertex: Vertex) -> KeysView[Vertex]:
        """Successors of ``vertex`` (same as :meth:`neighbors` when undirected)."""
        return self.neighbors(vertex)

    def in_neighbors(self, vertex: Vertex) -> KeysView[Vertex]:
        """Predecessors of ``vertex`` (same as :meth:`neighbors` when undirected)."""
        try:
            return self._pred[vertex].keys()
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Degree of ``vertex`` (out-degree for directed graphs)."""
        return len(self.neighbors(vertex))

    def in_degree(self, vertex: Vertex) -> int:
        """In-degree of ``vertex`` (equal to degree for undirected graphs)."""
        return len(self.in_neighbors(vertex))

    # ------------------------------------------------------------------ #
    # Convenience constructors and copies
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        directed: bool = False,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "Graph":
        """Build a graph from an iterable of edges (duplicates are ignored)."""
        graph = cls(directed=directed)
        if vertices is not None:
            for vertex in vertices:
                graph.add_vertex(vertex)
        for u, v in edges:
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "Graph":
        """Return an independent copy of the graph."""
        clone = Graph(directed=self._directed)
        for vertex in self._succ:
            clone.add_vertex(vertex)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def adjacency_payload(self) -> dict:
        """Picklable capture of the full adjacency in exact iteration order.

        The inverse of :meth:`from_adjacency_payload`.  Unlike
        ``(vertex_list(), edge_list())`` — whose rebuild canonicalizes
        neighbor order — the payload round-trips the graph *order-exactly*,
        which is what checkpoint/resume needs for bit-identical repair
        sweeps after recovery.
        """
        payload = {
            "succ": {v: list(nbrs) for v, nbrs in self._succ.items()},
            "pred": (
                {v: list(nbrs) for v, nbrs in self._pred.items()}
                if self._directed
                else None
            ),
        }
        return payload

    @classmethod
    def from_adjacency_payload(cls, payload: dict, directed: bool = False) -> "Graph":
        """Rebuild a graph captured by :meth:`adjacency_payload`, order-exact."""
        graph = cls(directed=directed)
        graph._succ = {
            v: {u: None for u in nbrs} for v, nbrs in payload["succ"].items()
        }
        if directed:
            pred = payload.get("pred") or {}
            graph._pred = {v: {u: None for u in nbrs} for v, nbrs in pred.items()}
        else:
            graph._pred = graph._succ
        total = sum(len(nbrs) for nbrs in graph._succ.values())
        graph._num_edges = total if directed else total // 2
        return graph

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Return the induced subgraph on the vertex set ``keep``."""
        keep_set = set(keep)
        missing = keep_set - set(self._succ)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        sub = Graph(directed=self._directed)
        for vertex in keep_set:
            sub.add_vertex(vertex)
        for u, v in self.edges():
            if u in keep_set and v in keep_set:
                sub.add_edge(u, v)
        return sub

    def vertex_list(self) -> List[Vertex]:
        """Return the vertices as a list (insertion order)."""
        return list(self._succ)

    def edge_list(self) -> List[Tuple[Vertex, Vertex]]:
        """Return the edges as a list."""
        return list(self.edges())
