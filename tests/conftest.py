"""Shared fixtures for the test suite.

Plain (non-fixture) helpers live in :mod:`tests.helpers`; import them from
there, never from this module.
"""

from __future__ import annotations

import pytest

from repro.graph import Graph
from repro.storage.buffers import active_segments


@pytest.fixture(autouse=True)
def shm_leak_guard():
    """Suite-wide guard: no test may leak a ``repro_*`` /dev/shm segment.

    The package creates no shared-memory segment, and a segment in the
    ``repro_`` namespace (a crash-sweep test's) must be gone when its test
    ends, so a post-test scan catching a new name is a leak.  Segments
    that predate the test (e.g. owned by an outer process) are tolerated.
    """
    before = set(active_segments())
    yield
    leaked = sorted(set(active_segments()) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture
def path5() -> Graph:
    """Path graph 0-1-2-3-4."""
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def cycle6() -> Graph:
    """Cycle graph on 6 vertices."""
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


@pytest.fixture
def star_graph5() -> Graph:
    """Star with center 0 and 5 leaves."""
    return Graph.from_edges([(0, i) for i in range(1, 6)])


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by a single bridge edge (2, 3).

    The bridge has the maximum edge betweenness and its endpoints the
    maximum vertex betweenness — a canonical "weak tie" configuration.
    """
    return Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


@pytest.fixture
def disconnected_graph() -> Graph:
    """Two separate components: a triangle and a path."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2), (10, 11), (11, 12)])
