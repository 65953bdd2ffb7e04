"""Static (from-scratch) betweenness centrality algorithms.

These are the building blocks and baselines of the paper:

* :func:`brandes_vertex_betweenness` — the classic Brandes algorithm with
  predecessor lists (the "MP" configuration of Section 6.1).
* :func:`brandes_betweenness` — the modified Brandes of Section 3 that
  computes vertex *and* edge betweenness in one pass and can run without
  predecessor lists (the "MO" configuration); it also materialises the
  per-source betweenness data ``BD[s]`` needed by the incremental framework.
* :func:`brute_force_betweenness` — an exponential path-enumeration oracle
  used only for testing on tiny graphs.
* :func:`approximate_betweenness` — source-sampled estimation (Brandes-Pich
  style), included because the paper discusses it as the main alternative.
* :class:`RecomputeBetweenness` — the dynamic baseline that recomputes from
  scratch after every update; the denominator of every speedup in Section 6.
"""

from repro.algorithms.brandes import (
    BrandesResult,
    brandes_betweenness,
    brandes_vertex_betweenness,
    edge_betweenness,
    vertex_betweenness,
)
from repro.algorithms.brute_force import brute_force_betweenness
from repro.algorithms.approximate import approximate_betweenness
from repro.algorithms.baseline import RecomputeBetweenness
from repro.algorithms.other_centrality import closeness_centrality, degree_centrality

__all__ = [
    "BrandesResult",
    "brandes_betweenness",
    "brandes_vertex_betweenness",
    "edge_betweenness",
    "vertex_betweenness",
    "brute_force_betweenness",
    "approximate_betweenness",
    "RecomputeBetweenness",
    "closeness_centrality",
    "degree_centrality",
]
