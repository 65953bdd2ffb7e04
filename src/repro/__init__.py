"""repro — Scalable online betweenness centrality in evolving graphs.

A from-scratch Python reproduction of Kourtellis, De Francisci Morales and
Bonchi, *Scalable Online Betweenness Centrality in Evolving Graphs*
(ICDE 2016).  The library maintains exact vertex and edge betweenness
centrality of an evolving, unweighted graph under a stream of edge
additions and removals, with in-memory or out-of-core storage of the
per-source data and an embarrassingly-parallel execution model.

The supported public surface is documented in ``docs/api.md``; the
recommended entry point is the unified session API:

>>> from repro import BetweennessConfig, BetweennessSession, Graph, additions
>>> g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
>>> config = BetweennessConfig(backend="arrays", store="arrays://", batch_size=2)
>>> with BetweennessSession(g, config) as session:
...     for event in session.stream(additions([(0, 4), (1, 3)])):
...         pass
...     top = session.top_k(3)

The engine classes (:class:`IncrementalBetweenness`, the stores, the
parallel drivers) remain importable for advanced use.
"""

from repro.algorithms import (
    RecomputeBetweenness,
    approximate_betweenness,
    brandes_betweenness,
    edge_betweenness,
    vertex_betweenness,
)
from repro.api import (
    BatchApplied,
    BetweennessConfig,
    BetweennessSession,
    BootstrapCompleted,
    CheckpointWritten,
    SessionClosed,
    SessionEvent,
    SessionSnapshot,
    SessionSubscriber,
    ShardRecovered,
    TopKSnapshot,
    TopKTracker,
    UpdateApplied,
    WorkerFailed,
    open_session,
    resume_session,
)
from repro.core import (
    BatchResult,
    EdgeUpdate,
    FrameworkCheckpoint,
    IncrementalBetweenness,
    UpdateKind,
    UpdateResult,
    additions,
    batches,
    removals,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.graph import Graph
from repro.storage import (
    ArrayBDStore,
    BDStore,
    DiskBDStore,
    InMemoryBDStore,
    StoreURI,
    create_store,
    parse_store_uri,
)

__version__ = "1.1.0"

__all__ = [
    # graph + core engine
    "Graph",
    "IncrementalBetweenness",
    "EdgeUpdate",
    "UpdateKind",
    "UpdateResult",
    "BatchResult",
    "FrameworkCheckpoint",
    "additions",
    "removals",
    "batches",
    # unified session API
    "BetweennessConfig",
    "BetweennessSession",
    "SessionSnapshot",
    "open_session",
    "resume_session",
    "SessionEvent",
    "BootstrapCompleted",
    "UpdateApplied",
    "BatchApplied",
    "CheckpointWritten",
    "WorkerFailed",
    "ShardRecovered",
    "SessionClosed",
    "SessionSubscriber",
    "TopKTracker",
    "TopKSnapshot",
    # offline algorithms
    "RecomputeBetweenness",
    "brandes_betweenness",
    "vertex_betweenness",
    "edge_betweenness",
    "approximate_betweenness",
    # storage backends + store URIs
    "BDStore",
    "InMemoryBDStore",
    "ArrayBDStore",
    "DiskBDStore",
    "StoreURI",
    "create_store",
    "parse_store_uri",
    # errors
    "ReproError",
    "ConfigurationError",
    "__version__",
]
