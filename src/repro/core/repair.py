"""Shared data structures for the per-source repair phases.

The search phases (Algorithms 2, 4, 6-8 of the paper) all produce the same
kind of artefact: for the current source, the set of vertices whose distance
and/or number of shortest paths changed, together with their new values and
level queues keyed by the new distance.  :class:`RepairPlan` captures that
artefact and is consumed by the shared dependency-accumulation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.types import Vertex


@dataclass
class RepairPlan:
    """Result of the search (BFS) phase of a per-source update.

    Attributes
    ----------
    new_distance:
        New distance for every vertex whose distance changed (vertices whose
        distance is unchanged are *absent*; unreachable vertices never appear
        here — they are listed in :attr:`disconnected`).
    new_sigma:
        New shortest-path counts for every vertex whose sigma (or distance)
        changed.  This is the sigma-affected set ``A_sigma``; it is closed
        downward in the new shortest-path DAG, which the accumulation phase
        relies on.
    affected:
        The sigma-affected set (same keys as :attr:`new_sigma`), kept as a
        set for O(1) membership tests.
    level_queues:
        Reachable affected vertices grouped by their *new* distance; the
        accumulation phase walks these from the deepest level upwards.
    disconnected:
        Vertices that became unreachable from the source (removal only).
    removed_edge_dependency:
        For removals where the removed edge ``(uH, uL)`` lay on a shortest
        path, the old dependency ``sigma[uH]/sigma[uL] * (1 + delta[uL])``
        that must be subtracted from ``uH`` and propagated upwards
        (Algorithm 2 lines 11-13 / Algorithm 7 line 16).
    high:
        The endpoint ``uH`` of the updated edge (closer to the source).
    low:
        The endpoint ``uL`` of the updated edge (farther from the source).
    """

    new_distance: Dict[Vertex, int] = field(default_factory=dict)
    new_sigma: Dict[Vertex, int] = field(default_factory=dict)
    affected: Set[Vertex] = field(default_factory=set)
    level_queues: Dict[int, List[Vertex]] = field(default_factory=dict)
    disconnected: List[Vertex] = field(default_factory=list)
    removed_edge_dependency: Optional[float] = None
    high: Optional[Vertex] = None
    low: Optional[Vertex] = None

    def enqueue(self, vertex: Vertex, level: int) -> None:
        """Register ``vertex`` as affected at ``level`` (new distance)."""
        self.level_queues.setdefault(level, []).append(vertex)

    @property
    def num_affected(self) -> int:
        """Number of sigma-affected vertices (excluding disconnections)."""
        return len(self.affected)
