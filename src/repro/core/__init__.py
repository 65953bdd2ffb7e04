"""Core contribution of the paper: incremental vertex & edge betweenness.

The public entry point is :class:`IncrementalBetweenness`; the remaining
modules implement the per-source machinery (classification of an update,
search-phase repairs for additions and removals, and the shared dependency
accumulation) and are exposed for tests, experiments and advanced users.
"""

from repro.core.checkpoint import (
    FrameworkCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.classification import SourceClassification, UpdateCase, classify
from repro.core.framework import BACKENDS, IncrementalBetweenness
from repro.core.kernel import ArrayKernel, brandes_betweenness_arrays
from repro.core.repair import RepairPlan
from repro.core.result import BatchResult, SourceUpdateStats, UpdateResult
from repro.core.source_update import update_source
from repro.core.updates import EdgeUpdate, UpdateKind, additions, batches, removals

__all__ = [
    "IncrementalBetweenness",
    "BACKENDS",
    "ArrayKernel",
    "brandes_betweenness_arrays",
    "FrameworkCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "EdgeUpdate",
    "UpdateKind",
    "additions",
    "batches",
    "removals",
    "UpdateResult",
    "BatchResult",
    "SourceUpdateStats",
    "UpdateCase",
    "SourceClassification",
    "classify",
    "RepairPlan",
    "update_source",
]
