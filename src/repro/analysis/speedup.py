"""Per-edge speedup measurement over the Brandes baseline.

Every speedup in the paper's evaluation is defined the same way: the time
Brandes' algorithm needs to recompute betweenness from scratch on the
updated graph, divided by the time the incremental framework needs to repair
its state for the same update.  This module measures both sides and packages
the per-edge speedups so that the benchmark harness can print CDFs
(Figures 5-6) and min/median/max summaries (Tables 3-4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.brandes import brandes_betweenness
from repro.api.config import BetweennessConfig
from repro.api.session import BetweennessSession
from repro.core.framework import IncrementalBetweenness
from repro.core.result import UpdateResult
from repro.core.updates import EdgeUpdate, batches
from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.utils.stats import SummaryStats, empirical_cdf, summarize
from repro.utils.timing import Timer, timed


class Variant(enum.Enum):
    """The three framework configurations compared in Figure 5.

    * ``MP`` — in memory, maintaining predecessor lists (original Brandes
      data structures);
    * ``MO`` — in memory, no predecessor lists (the paper's memory
      optimisation);
    * ``DO`` — on disk (out of core), no predecessor lists.
    """

    MP = "MP"
    MO = "MO"
    DO = "DO"


def variant_config(
    variant: Variant = Variant.MO,
    directed: bool = False,
    backend: str = "dicts",
    batch_size: int = 1,
    disk_path: Optional[Path] = None,
    checkpoint_path: Optional[Path] = None,
) -> BetweennessConfig:
    """Translate one of the paper's MP / MO / DO variants into a config.

    MP maintains predecessor lists in memory, MO is the in-memory
    no-predecessor configuration, DO stores the records out of core (at
    ``disk_path``, or a temporary file when absent).  The returned config is
    a plain :class:`~repro.api.config.BetweennessConfig` — everything else
    (store URI resolution, session construction) goes through the unified
    service layer.
    """
    if not isinstance(variant, Variant):
        raise ConfigurationError(f"unknown variant {variant!r}")
    if variant is not Variant.DO and disk_path is not None:
        raise ConfigurationError("disk_path only applies to the DO variant")
    if variant is Variant.DO:
        store = f"disk:{disk_path}" if disk_path is not None else "disk://"
    else:
        store = "memory://"
    return BetweennessConfig(
        backend=backend,
        directed=directed,
        batch_size=batch_size,
        store=store,
        maintain_predecessors=variant is Variant.MP,
        checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
    )


def build_framework(
    graph: Graph,
    variant: Variant = Variant.MO,
    disk_path: Optional[Path] = None,
    backend: str = "dicts",
) -> IncrementalBetweenness:
    """Instantiate the framework in one of the paper's three configurations.

    For the DO variant, ``disk_path`` must be empty or absent: the store is
    created fresh there (and refuses — via
    :class:`~repro.exceptions.StoreExistsError` — to truncate an existing
    one).  Resuming from an existing store needs the graph state its records
    describe, which only a checkpoint records; use
    :meth:`IncrementalBetweenness.resume
    <repro.core.framework.IncrementalBetweenness.resume>` for that.

    ``backend`` selects the compute kernel (``"dicts"`` or ``"arrays"``)
    for the MO and DO variants; MP exists only in the dicts backend (the
    config layer rejects the combination).
    """
    config = variant_config(
        variant, directed=graph.directed, backend=backend, disk_path=disk_path
    )
    return BetweennessSession(graph, config).framework


def measure_brandes_seconds(
    graph: Graph,
    repeats: int = 1,
    keep_predecessors: bool = False,
    backend: str = "dicts",
) -> float:
    """Average wall-clock seconds of a full Brandes run on ``graph``.

    ``backend`` picks the Brandes implementation timed (see
    :func:`~repro.algorithms.brandes.brandes_betweenness`).
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    timer = Timer()
    for _ in range(repeats):
        with timer.measure():
            brandes_betweenness(
                graph, keep_predecessors=keep_predecessors, backend=backend
            )
    return timer.mean


@dataclass
class SpeedupSeries:
    """Per-edge speedups of one (dataset, variant, update-kind) combination."""

    label: str
    variant: Variant
    baseline_seconds: float
    update_seconds: List[float] = field(default_factory=list)
    speedups: List[float] = field(default_factory=list)
    results: List[UpdateResult] = field(default_factory=list)

    def cdf(self) -> List[Tuple[float, float]]:
        """Empirical CDF of the speedups (the curves of Figures 5-6)."""
        return empirical_cdf(self.speedups)

    def summary(self) -> SummaryStats:
        """Min / median / mean / max speedup (the rows of Table 4)."""
        return summarize(self.speedups)

    @property
    def average_skip_fraction(self) -> float:
        """Mean fraction of sources skipped per update (ablation metric)."""
        if not self.results:
            return 0.0
        return sum(result.skip_fraction for result in self.results) / len(self.results)


def measure_stream_speedups(
    graph: Graph,
    updates: Sequence[EdgeUpdate],
    variant: Variant = Variant.MO,
    label: str = "graph",
    baseline_seconds: Optional[float] = None,
    baseline_repeats: int = 1,
    disk_path: Optional[Path] = None,
    batch_size: int = 1,
    checkpoint_path: Optional[Path] = None,
    backend: str = "dicts",
    config: Optional[BetweennessConfig] = None,
) -> SpeedupSeries:
    """Apply ``updates`` with the chosen variant and record per-edge speedups.

    Parameters
    ----------
    graph:
        The starting graph (the updates are applied on top of it).
    updates:
        The update stream (additions, removals or a mix).
    variant:
        Which of the MP / MO / DO configurations to run.
    label:
        Dataset label carried into the resulting series (used by reports).
    baseline_seconds:
        Pre-measured Brandes baseline time.  When omitted it is measured on
        the *initial* graph, with the Brandes of the measured backend; the
        paper likewise uses the cost of a from-scratch recomputation as the
        denominator for every edge in the stream (its variation across
        single-edge updates is negligible).
    baseline_repeats:
        Number of Brandes runs to average when measuring the baseline here.
    disk_path:
        Optional location of the DO variant's backing file.
    batch_size:
        When greater than one, apply the stream through the batched pipeline
        (:meth:`~repro.core.framework.IncrementalBetweenness.apply_updates`)
        in chunks of this size; each update in a chunk is charged an equal
        share of the chunk's wall-clock time.
    checkpoint_path:
        When given, write a framework checkpoint sidecar here after the
        whole stream has been applied (before the store is closed), so a
        later run can resume from the post-stream state.
    backend:
        Compute backend of the measured framework (``"dicts"`` or
        ``"arrays"``).  A baseline measured here times the from-scratch
        Brandes of the same backend, so a speedup compares one engine with
        itself.
    config:
        A fully resolved :class:`~repro.api.config.BetweennessConfig` to
        run under (the CLI passes one).  When given, it takes precedence
        over the individual ``variant`` / ``disk_path`` / ``batch_size`` /
        ``checkpoint_path`` / ``backend`` knobs, which remain as
        conveniences for direct callers.
    """
    if config is None:
        config = variant_config(
            variant,
            directed=graph.directed,
            backend=backend,
            batch_size=batch_size,
            disk_path=disk_path,
            checkpoint_path=checkpoint_path,
        )
    if config.executor != "serial":
        # The speedup experiment measures the serial framework (the MP/MO/DO
        # variants of Figure 5) and reads serial result shapes; a parallel
        # config would crash deep inside instead of failing clearly here.
        raise ConfigurationError(
            "measure_stream_speedups runs the serial executor only; use "
            "`repro online --workers N` (or BetweennessSession directly) "
            f"for parallel measurements, got executor={config.executor!r}"
        )
    if baseline_seconds is None:
        baseline_seconds = measure_brandes_seconds(
            graph, repeats=baseline_repeats, backend=config.backend
        )
    series = SpeedupSeries(
        label=label, variant=variant, baseline_seconds=baseline_seconds
    )
    with BetweennessSession(graph, config) as session:
        if config.batch_size == 1:
            for update in updates:
                result, elapsed = timed(session.apply, update)
                series.results.append(result)
                series.update_seconds.append(elapsed)
                series.speedups.append(
                    baseline_seconds / elapsed if elapsed > 0 else float("inf")
                )
        else:
            for chunk in batches(updates, config.batch_size):
                batch_result, elapsed = timed(session.apply_batch, chunk)
                per_update = elapsed / len(chunk)
                for result in batch_result.results:
                    series.results.append(result)
                    series.update_seconds.append(per_update)
                    series.speedups.append(
                        baseline_seconds / per_update
                        if per_update > 0
                        else float("inf")
                    )
        if config.checkpoint_path is not None:
            session.checkpoint()
    return series
