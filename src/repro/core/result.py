"""Result and statistics objects returned by the incremental framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.classification import UpdateCase
from repro.core.updates import EdgeUpdate


@dataclass
class SourceUpdateStats:
    """Work accounting for one (source, update) pair.

    The experiment harness aggregates these to explain speedups: sources
    classified as ``SKIP`` cost almost nothing (with the out-of-core store
    only two distances are read), while structural changes touch larger
    portions of the shortest-path DAG.
    """

    case: UpdateCase
    affected_vertices: int = 0
    touched_vertices: int = 0
    disconnected_vertices: int = 0


@dataclass
class UpdateResult:
    """Outcome of applying one edge update to the whole framework.

    Attributes
    ----------
    update:
        The edge update that was applied.
    case_counts:
        How many sources fell into each :class:`UpdateCase`.
    sources_processed:
        Total number of sources examined (equals the number of vertices).
    sources_skipped:
        Sources for which the update required no work (``dd == 0`` or both
        endpoints unreachable).
    affected_vertices:
        Total number of sigma-affected vertices summed over sources.
    touched_vertices:
        Total number of vertices whose dependency was adjusted, summed over
        sources.
    elapsed_seconds:
        Wall-clock time spent applying the update (None when not timed).
    """

    update: EdgeUpdate
    case_counts: Dict[UpdateCase, int] = field(default_factory=dict)
    sources_processed: int = 0
    sources_skipped: int = 0
    affected_vertices: int = 0
    touched_vertices: int = 0
    disconnected_vertices: int = 0
    elapsed_seconds: Optional[float] = None

    def record(self, stats: SourceUpdateStats) -> None:
        """Fold the statistics of one source into this result."""
        self.fold(
            {stats.case: 1},
            stats.affected_vertices,
            stats.touched_vertices,
            stats.disconnected_vertices,
        )

    def fold(
        self,
        case_counts: Dict[UpdateCase, int],
        affected: int = 0,
        touched: int = 0,
        disconnected: int = 0,
    ) -> None:
        """Fold many sources in at once: ``case_counts[case]`` sources per
        case, plus their summed work.  Same totals as one :meth:`record`
        per source; a zero count adds no key."""
        for case, count in case_counts.items():
            if count:
                self.sources_processed += count
                self.case_counts[case] = self.case_counts.get(case, 0) + count
                if case is UpdateCase.SKIP:
                    self.sources_skipped += count
        self.affected_vertices += affected
        self.touched_vertices += touched
        self.disconnected_vertices += disconnected

    @property
    def skip_fraction(self) -> float:
        """Fraction of sources skipped (0.0 when nothing was processed)."""
        if self.sources_processed == 0:
            return 0.0
        return self.sources_skipped / self.sources_processed


@dataclass
class BatchResult:
    """Outcome of applying a whole batch of edge updates in one source sweep.

    The batched pipeline visits every source once, replaying the batch in
    order against its betweenness data, instead of sweeping the whole store
    once per update.  The scores it produces are identical to applying the
    updates one at a time; what changes is the I/O profile, captured here:

    Attributes
    ----------
    updates:
        The batch, in application order.
    results:
        One :class:`UpdateResult` per update, aggregating the per-source
        statistics exactly as the one-at-a-time path would (their
        ``elapsed_seconds`` is ``None``; only the batch as a whole is timed).
    elapsed_seconds:
        Wall-clock time for the whole batch (None when not timed).
    sources_loaded:
        Sources whose full ``BD[s]`` record was loaded and saved back —
        exactly once each, however long the batch.
    sources_peek_skipped:
        Sources dismissed by the distance peek alone, without ever
        materialising their record.
    """

    updates: List[EdgeUpdate] = field(default_factory=list)
    results: List[UpdateResult] = field(default_factory=list)
    elapsed_seconds: Optional[float] = None
    sources_loaded: int = 0
    sources_peek_skipped: int = 0

    @property
    def num_updates(self) -> int:
        """Number of updates in the batch."""
        return len(self.updates)

    @property
    def sources_processed(self) -> int:
        """Total (source, update) pairs examined, summed over the batch."""
        return sum(result.sources_processed for result in self.results)

    @property
    def sources_skipped(self) -> int:
        """Total (source, update) pairs skipped, summed over the batch."""
        return sum(result.sources_skipped for result in self.results)

    @property
    def skip_fraction(self) -> float:
        """Fraction of (source, update) pairs skipped across the batch."""
        processed = self.sources_processed
        if processed == 0:
            return 0.0
        return self.sources_skipped / processed

    @property
    def seconds_per_update(self) -> float:
        """Average wall-clock seconds per update in the batch."""
        if not self.updates or self.elapsed_seconds is None:
            return 0.0
        return self.elapsed_seconds / len(self.updates)
