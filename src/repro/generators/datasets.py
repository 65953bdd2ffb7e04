"""Scaled-down synthetic stand-ins for the datasets of Table 2.

The paper's experiments use four synthetic social graphs (1k to 1000k
vertices) and six real KONECT graphs (wiki-elections, slashdot, facebook,
epinions, dblp, amazon).  The real graphs cannot be downloaded in this
offline environment and the paper's sizes are far beyond what pure-Python
Brandes baselines can process in a benchmark run, so each dataset is
replaced by a *structural stand-in*: a synthetic graph whose average degree
and clustering-coefficient regime match the original (Table 2 columns AD and
CC), scaled down by a constant factor, with synthetic arrival timestamps.

This substitution preserves the property the evaluation reasons about —
Section 6.1 explains speedup differences through clustering coefficient and
diameter, not through the identity of the vertices — and is documented in
the introduction of ``docs/reproduction.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.generators.random_graphs import powerlaw_cluster_graph
from repro.generators.social import synthetic_social_graph
from repro.generators.streams import EvolvingGraph
from repro.graph.components import largest_connected_component
from repro.graph.graph import Graph
from repro.utils.rng import RandomLike, ensure_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one dataset stand-in.

    ``paper_vertices`` / ``paper_edges`` / ``paper_clustering`` record the
    original statistics from Table 2 (for reporting); ``default_vertices``
    and ``average_degree`` / ``clustering`` drive the generator.
    """

    name: str
    kind: str  # "synthetic" or "real"
    paper_vertices: int
    paper_edges: int
    paper_clustering: float
    default_vertices: int
    average_degree: float
    clustering: float

    def scaled(self, num_vertices: Optional[int]) -> int:
        """Vertex count to generate (the default unless overridden)."""
        return self.default_vertices if num_vertices is None else num_vertices


#: The ten datasets of Table 2 with their stand-in parameters.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        # Synthetic social graphs (the paper's 1k .. 1000k series).
        DatasetSpec("synthetic-1k", "synthetic", 1_000, 5_895, 0.263, 300, 11.8, 0.25),
        DatasetSpec("synthetic-10k", "synthetic", 10_000, 58_539, 0.219, 450, 11.8, 0.22),
        DatasetSpec("synthetic-100k", "synthetic", 100_000, 587_970, 0.207, 600, 11.8, 0.21),
        DatasetSpec("synthetic-1000k", "synthetic", 1_000_000, 5_896_878, 0.204, 800, 11.8, 0.20),
        # Real-graph stand-ins.
        DatasetSpec("wikielections", "real", 7_066, 100_780, 0.126, 280, 8.3, 0.13),
        DatasetSpec("slashdot", "real", 51_082, 117_377, 0.006, 380, 4.6, 0.01),
        DatasetSpec("facebook", "real", 63_392, 816_885, 0.148, 400, 12.9, 0.15),
        DatasetSpec("epinions", "real", 119_130, 704_571, 0.081, 420, 11.8, 0.08),
        DatasetSpec("dblp", "real", 1_105_171, 4_835_099, 0.648, 500, 8.7, 0.6),
        DatasetSpec("amazon", "real", 2_146_057, 5_743_145, 0.0004, 550, 3.5, 0.001),
    ]
}


def available_datasets(kind: Optional[str] = None) -> List[str]:
    """Names of the available dataset stand-ins (optionally filtered by kind)."""
    return [
        name
        for name, spec in DATASET_SPECS.items()
        if kind is None or spec.kind == kind
    ]


def load_dataset(
    name: str,
    num_vertices: Optional[int] = None,
    rng: RandomLike = None,
    as_evolving: bool = False,
):
    """Generate the stand-in graph for dataset ``name``.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    num_vertices:
        Override the default (scaled-down) size.
    rng:
        Seed or random generator.
    as_evolving:
        When ``True`` return an :class:`~repro.generators.streams.EvolvingGraph`
        with synthetic exponential arrival times instead of a plain graph,
        which is what the online experiments need.

    Returns
    -------
    Graph or EvolvingGraph
        The largest connected component of the generated graph (matching the
        paper's use of the LCC of every real dataset).
    """
    spec = DATASET_SPECS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}"
        )
    generator = ensure_rng(rng)
    n = spec.scaled(num_vertices)

    if spec.clustering >= 0.05:
        graph = synthetic_social_graph(
            n,
            average_degree=spec.average_degree,
            clustering=spec.clustering,
            rng=generator,
        )
    else:
        # Low-clustering graphs (slashdot, amazon): plain preferential
        # attachment without triangle closure reproduces the near-zero
        # clustering and larger diameter the paper highlights for amazon.
        edges_per_vertex = max(1, round(spec.average_degree / 2.0))
        graph = powerlaw_cluster_graph(n, edges_per_vertex, 0.0, rng=generator)

    graph = largest_connected_component(graph)
    if not as_evolving:
        return graph
    return EvolvingGraph.from_graph(graph, rng=generator)


def synthetic_suite(
    sizes: Optional[Dict[str, int]] = None, rng: RandomLike = None
) -> Dict[str, Graph]:
    """Generate the synthetic series used across the benchmarks.

    ``sizes`` maps dataset name to an overriding vertex count; by default the
    four synthetic specs are generated at their scaled-down defaults.
    """
    generator = ensure_rng(rng)
    result: Dict[str, Graph] = {}
    for name in available_datasets(kind="synthetic"):
        override = None if sizes is None else sizes.get(name)
        result[name] = load_dataset(name, num_vertices=override, rng=generator)
    return result
