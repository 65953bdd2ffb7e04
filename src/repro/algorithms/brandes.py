"""Brandes' algorithm and the paper's modified variant.

Two implementations are provided:

* :func:`brandes_vertex_betweenness` follows Brandes (2001) exactly,
  building a predecessor list during the BFS and backtracking over it.  This
  is the "MP" (in Memory, with Predecessors) configuration of Section 6.1.

* :func:`brandes_betweenness` is the modified algorithm of Section 3: it
  simultaneously accumulates vertex and edge betweenness, optionally skips
  the predecessor lists (scanning neighbors and using the distance level to
  identify predecessors during backtracking — the "MO" configuration), and
  can return the per-source betweenness data ``BD[s] = (d, sigma, delta)``
  required to bootstrap the incremental framework (Step 1 of Figure 1).

Both run in O(nm) time on unweighted graphs.  Scores follow Definitions 2.1
and 2.2 of the paper: pairs are ordered, so on undirected graphs every
unordered pair contributes twice (no halving is applied), matching the
values the incremental framework maintains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.types import (
    Edge,
    EdgeScores,
    Vertex,
    VertexScores,
    canonical_edge,
    validate_backend,
)


@dataclass
class SourceData:
    """Per-source betweenness data ``BD[s]`` (Section 3 of the paper).

    Attributes
    ----------
    distance:
        ``BD[s].d[t]`` — hop distance from the source to ``t``.
    sigma:
        ``BD[s].sigma[t]`` — number of shortest paths from the source to ``t``.
    delta:
        ``BD[s].delta[t]`` — dependency accumulated on ``t`` while
        backtracking towards the source.

    Unreachable vertices are simply absent from the dictionaries.
    """

    source: Vertex
    distance: Dict[Vertex, int] = field(default_factory=dict)
    sigma: Dict[Vertex, int] = field(default_factory=dict)
    delta: Dict[Vertex, float] = field(default_factory=dict)


@dataclass
class BrandesResult:
    """Output of a full Brandes run.

    ``vertex_scores`` and ``edge_scores`` follow Definitions 2.1/2.2;
    ``source_data`` is only populated when requested and maps every source
    to its :class:`SourceData` (the ``BD[.]`` structure of the paper).
    """

    vertex_scores: VertexScores
    edge_scores: EdgeScores
    source_data: Optional[Dict[Vertex, SourceData]] = None


def _edge_key(graph: Graph, u: Vertex, v: Vertex) -> Edge:
    """Canonical score key for the edge (u, v)."""
    if graph.directed:
        return (u, v)
    return canonical_edge(u, v)


def single_source_brandes(
    graph: Graph,
    source: Vertex,
    keep_predecessors: bool = False,
) -> Tuple[SourceData, Dict[Edge, float]]:
    """Run the search + accumulation phases for a single source.

    Returns the per-source data ``BD[s]`` and the per-source edge dependency
    contributions (keyed by canonical edge).  The vertex dependency is
    ``BD[s].delta``; the caller aggregates over sources.
    """
    data = SourceData(source=source)
    distance = data.distance
    sigma = data.sigma
    delta = data.delta

    distance[source] = 0
    sigma[source] = 1
    order: List[Vertex] = []
    predecessors: Optional[Dict[Vertex, List[Vertex]]] = (
        {source: []} if keep_predecessors else None
    )

    queue: deque[Vertex] = deque([source])
    while queue:
        vertex = queue.popleft()
        order.append(vertex)
        vertex_distance = distance[vertex]
        vertex_sigma = sigma[vertex]
        for neighbor in graph.out_neighbors(vertex):
            if neighbor not in distance:
                distance[neighbor] = vertex_distance + 1
                sigma[neighbor] = 0
                if predecessors is not None:
                    predecessors[neighbor] = []
                queue.append(neighbor)
            if distance[neighbor] == vertex_distance + 1:
                sigma[neighbor] += vertex_sigma
                if predecessors is not None:
                    predecessors[neighbor].append(vertex)

    for vertex in order:
        delta[vertex] = 0.0

    edge_contrib: Dict[Edge, float] = {}
    # Dependency accumulation, in reverse BFS order (deepest level first).
    for vertex in reversed(order):
        if vertex == source:
            continue
        coefficient = (1.0 + delta[vertex]) / sigma[vertex]
        if predecessors is not None:
            parents: Iterable[Vertex] = predecessors[vertex]
        else:
            # Predecessor-free variant: scan all neighbors and use the level
            # in the shortest-path DAG to identify predecessors (Section 3).
            parent_level = distance[vertex] - 1
            parents = (
                neighbor
                for neighbor in graph.in_neighbors(vertex)
                if distance.get(neighbor) == parent_level
            )
        for parent in parents:
            contribution = sigma[parent] * coefficient
            delta[parent] += contribution
            key = _edge_key(graph, parent, vertex)
            edge_contrib[key] = edge_contrib.get(key, 0.0) + contribution
    return data, edge_contrib


def brandes_betweenness(
    graph: Graph,
    sources: Optional[Iterable[Vertex]] = None,
    keep_predecessors: bool = False,
    collect_source_data: bool = False,
    backend: str = "dicts",
) -> BrandesResult:
    """Compute vertex and edge betweenness centrality.

    Parameters
    ----------
    graph:
        Input graph (directed or undirected).
    sources:
        Optional subset of sources to accumulate over; defaults to all
        vertices (the exact betweenness).  Restricting the sources yields the
        partial scores one worker of the partitioned runtime contributes.
    keep_predecessors:
        Use the original predecessor lists (``True``) or the paper's
        predecessor-free backtracking (``False``, default).
    collect_source_data:
        When ``True``, return ``BD[s]`` for every processed source; this is
        Step 1 of the framework (Figure 1).
    backend:
        ``"dicts"`` (default) runs the scalar dictionary implementation;
        ``"arrays"`` delegates to the vectorized CSR kernel
        (:func:`repro.core.kernel.brandes_betweenness_arrays`), which
        returns bit-identical scores — on directed graphs too — without
        predecessor lists (its only supported configuration).
    """
    if validate_backend(backend) == "arrays":
        if keep_predecessors:
            raise ConfigurationError(
                "the arrays backend implements only the predecessor-free "
                "variant (keep_predecessors=False)"
            )
        # Imported lazily: core.kernel depends on this module's SourceData.
        from repro.core.kernel import brandes_betweenness_arrays

        return brandes_betweenness_arrays(
            graph, sources=sources, collect_source_data=collect_source_data
        )
    vertex_scores: VertexScores = {v: 0.0 for v in graph.vertices()}
    edge_scores: EdgeScores = {_edge_key(graph, u, v): 0.0 for u, v in graph.edges()}
    all_source_data: Optional[Dict[Vertex, SourceData]] = (
        {} if collect_source_data else None
    )

    source_list = list(sources) if sources is not None else graph.vertex_list()
    for source in source_list:
        data, edge_contrib = single_source_brandes(
            graph, source, keep_predecessors=keep_predecessors
        )
        for vertex, dependency in data.delta.items():
            if vertex != source:
                vertex_scores[vertex] += dependency
        for edge, contribution in edge_contrib.items():
            edge_scores[edge] = edge_scores.get(edge, 0.0) + contribution
        if all_source_data is not None:
            all_source_data[source] = data
    return BrandesResult(
        vertex_scores=vertex_scores,
        edge_scores=edge_scores,
        source_data=all_source_data,
    )


def brandes_vertex_betweenness(
    graph: Graph, keep_predecessors: bool = True
) -> VertexScores:
    """Classic Brandes vertex betweenness (predecessor lists by default)."""
    result = brandes_betweenness(graph, keep_predecessors=keep_predecessors)
    return result.vertex_scores


def vertex_betweenness(graph: Graph) -> VertexScores:
    """Vertex betweenness centrality of every vertex (Definition 2.1)."""
    return brandes_betweenness(graph).vertex_scores


def edge_betweenness(graph: Graph) -> EdgeScores:
    """Edge betweenness centrality of every edge (Definition 2.2)."""
    return brandes_betweenness(graph).edge_scores
