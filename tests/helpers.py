"""Assertion helpers and graph builders shared across test modules.

Import from here (``from tests.helpers import ...``) rather than from
``conftest`` — conftest modules are loaded by pytest for fixtures and are
not importable under rootdir collection.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.algorithms import brandes_betweenness
from repro.algorithms.brandes import SourceData
from repro.core.framework import IncrementalBetweenness
from repro.graph import Graph
from repro.storage import BDStore, InMemoryBDStore
from repro.types import Vertex

TOLERANCE = 1e-8


def random_connected_graph(n: int, extra_edge_probability: float, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus random extra edges."""
    rng = random.Random(seed)
    graph = Graph()
    graph.add_vertex(0)
    for vertex in range(1, n):
        graph.add_edge(vertex, rng.randrange(vertex))
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.random() < extra_edge_probability:
                graph.add_edge(u, v)
    return graph


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Plain G(n, p) random graph (possibly disconnected)."""
    rng = random.Random(seed)
    graph = Graph()
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


def assert_scores_equal(actual: Dict, expected: Dict, tolerance: float = TOLERANCE, label: str = "") -> None:
    """Assert two score dictionaries agree on every key within ``tolerance``.

    Keys missing from one side are treated as 0.0, which matches the
    semantics of betweenness scores (absent = never on a shortest path).
    """
    for key in set(actual) | set(expected):
        a = actual.get(key, 0.0)
        e = expected.get(key, 0.0)
        assert abs(a - e) <= tolerance, f"{label} score mismatch for {key!r}: {a} != {e}"


def assert_framework_matches_recompute(
    framework: IncrementalBetweenness, tolerance: float = TOLERANCE
) -> None:
    """Assert a framework's scores and stored BD match a fresh Brandes run."""
    reference = brandes_betweenness(
        framework.graph, keep_predecessors=False, collect_source_data=True
    )
    assert_scores_equal(
        framework.vertex_betweenness(), reference.vertex_scores, tolerance, "vertex"
    )
    assert_scores_equal(
        framework.edge_betweenness(), reference.edge_scores, tolerance, "edge"
    )
    for source, expected in reference.source_data.items():
        stored = framework.store.get(source)
        assert stored.distance == expected.distance, f"distance mismatch for source {source!r}"
        assert stored.sigma == expected.sigma, f"sigma mismatch for source {source!r}"
        assert_scores_equal(stored.delta, expected.delta, tolerance, f"delta[{source!r}]")


def copy_records(
    store: BDStore,
    sources: Optional[Iterable[Vertex]] = None,
    into: Optional[BDStore] = None,
) -> BDStore:
    """``into`` (a fresh in-memory store by default) holding independent
    copies of ``store``'s records of ``sources`` (default: all), put in
    that order — a store to rebuild a framework from with ``from_store``."""
    target = InMemoryBDStore() if into is None else into
    for source in store.sources() if sources is None else sources:
        data = store.get(source)
        target.put(
            SourceData(
                source=data.source,
                distance=dict(data.distance),
                sigma=dict(data.sigma),
                delta=dict(data.delta),
            )
        )
    return target


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality of two graphs (same vertices and edges)."""
    if set(a.vertices()) != set(b.vertices()):
        return False
    return set(a.edges()) == set(b.edges())


def process_alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (Linux ``/proc``).

    A zombie counts as gone: a worker whose SIGKILLed driver can no longer
    reap it has exited as far as memory, pipes and segments are concerned.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rindex(b")") + 2 : stat.rindex(b")") + 3] != b"Z"


def live_processes_matching(fragment: str) -> List[int]:
    """Pids of running processes whose command line contains ``fragment``."""
    matching = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fragment in command and process_alive(int(entry)):
            matching.append(int(entry))
    return matching


def wait_until(condition: Callable[[], bool], timeout: float) -> bool:
    """Poll ``condition`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True
