"""Applications built on top of the incremental framework.

The paper's headline use case (Section 6.3) is Girvan–Newman community
detection: the algorithm repeatedly removes the edge with the highest edge
betweenness, which is exactly the operation the incremental framework makes
cheap.  A second application, top-k centrality tracking over an edge
stream, illustrates the "online detection of emerging leaders" direction
mentioned in the conclusions; it is a session subscriber
(:class:`~repro.api.TopKTracker`), re-exported here next to the other
application.
"""

from repro.api.subscribers import TopKSnapshot, TopKTracker
from repro.applications.girvan_newman import (
    CommunityHierarchy,
    GirvanNewmanResult,
    girvan_newman,
    modularity,
)

__all__ = [
    "girvan_newman",
    "GirvanNewmanResult",
    "CommunityHierarchy",
    "modularity",
    "TopKTracker",
    "TopKSnapshot",
]
