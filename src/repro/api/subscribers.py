"""Ready-made session subscribers.

Event-driven harnesses: top-k rank tracking (:class:`TopKTracker`) and
the online deadline ledger the replay harness in
:mod:`repro.parallel.online` feeds from session events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.api.events import (
    BatchApplied,
    SessionEvent,
    SessionSubscriber,
    UpdateApplied,
)
from repro.core.updates import EdgeUpdate
from repro.exceptions import ConfigurationError
from repro.types import Edge, Vertex
from repro.utils.stats import top_k_items


@dataclass(frozen=True)
class TopKSnapshot:
    """Ranking state after one update (or one batch)."""

    update: EdgeUpdate
    top_vertices: Tuple[Tuple[Vertex, float], ...]
    top_edges: Tuple[Tuple[Edge, float], ...]

    def vertex_ranking(self) -> Tuple[Vertex, ...]:
        """Just the vertices, in rank order."""
        return tuple(vertex for vertex, _ in self.top_vertices)


class TopKTracker(SessionSubscriber):
    """Maintain the k most central vertices/edges as the session streams.

    Subscribe it to any session::

        tracker = session.subscribe(TopKTracker(k=10))
        for _ in session.stream(updates):
            pass
        print(tracker.snapshots[-1].vertex_ranking())

    One :class:`TopKSnapshot` is recorded per :class:`UpdateApplied` event
    and per :class:`BatchApplied` event (a batch completes atomically, so
    its post-batch ranking is attributed to its last update).
    """

    def __init__(self, k: int = 10, track_edges: bool = True) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.track_edges = track_edges
        self.snapshots: List[TopKSnapshot] = []
        self._session = None

    # -- SessionSubscriber ---------------------------------------------- #
    def attach(self, session) -> None:
        self._session = session

    def on_event(self, event: SessionEvent) -> None:
        if isinstance(event, UpdateApplied):
            self._record(event.update)
        elif isinstance(event, BatchApplied) and event.updates:
            self._record(event.updates[-1])

    # -- Rankings -------------------------------------------------------- #
    def top_vertices(
        self, k: Optional[int] = None
    ) -> Tuple[Tuple[Vertex, float], ...]:
        """Current top-k vertices as ``(vertex, score)`` pairs."""
        self._ensure_attached()
        scores = self._session.vertex_betweenness()
        return tuple(top_k_items(scores.items(), self.k if k is None else k))

    def top_edges(self, k: Optional[int] = None) -> Tuple[Tuple[Edge, float], ...]:
        """Current top-k edges as ``(edge, score)`` pairs."""
        self._ensure_attached()
        scores = self._session.edge_betweenness()
        return tuple(top_k_items(scores.items(), self.k if k is None else k))

    def ranking_churn(self) -> List[int]:
        """Vertices entering/leaving the top-k between recorded snapshots."""
        churn: List[int] = []
        for previous, current in zip(self.snapshots, self.snapshots[1:]):
            before = set(previous.vertex_ranking())
            after = set(current.vertex_ranking())
            churn.append(len(before.symmetric_difference(after)))
        return churn

    # -- Internals ------------------------------------------------------- #
    def _record(self, update: EdgeUpdate) -> TopKSnapshot:
        snapshot = TopKSnapshot(
            update=update,
            top_vertices=self.top_vertices(),
            top_edges=self.top_edges() if self.track_edges else (),
        )
        self.snapshots.append(snapshot)
        return snapshot

    def _ensure_attached(self) -> None:
        if self._session is None:
            raise ConfigurationError(
                "tracker is not attached to a session yet; register it via "
                "session.subscribe(tracker)"
            )
