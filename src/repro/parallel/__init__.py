"""Parallel execution, scaling models and online-update simulation.

Section 5 of the paper makes the incremental algorithm practical at scale by
exploiting its embarrassing parallelism over sources: the per-source data is
partitioned across ``p`` shared-nothing workers, each worker repairs its own
partition for every update, and partial betweenness scores are summed by a
reducer (the MapReduce embodiment of Figure 4).  Section 5.3 derives the
online-capacity model ``tU = tS * n / p + tM`` that predicts how many
workers are needed to keep up with a given edge-arrival rate.

Two embodiments are provided.  :class:`MapReduceBetweenness` is a faithful
in-process simulation: the map phase really runs the per-source incremental
updates partition by partition, per-partition times are measured, and
cluster wall-clock is derived exactly as the paper's model prescribes.
:class:`ShardCoordinator` replaces the simulation with real OS worker
processes — the only multi-process runtime: each worker owns one partition's
restricted framework, the initial Brandes phase and every update batch run
concurrently, and the reduce step merges the measured partial scores (one
:class:`ParallelBatchReport` per batch).

Given a ``shard://`` root the coordinator's partitions are first-class
**shards** with durable per-shard state: workers checkpoint at a configurable
cadence, a dead or wedged worker is replaced from the shard's checkpoint
(replaying only the batches it missed), and the whole ensemble can be resumed
from disk alone.  Without a root the same workers run with no disk state, and
a failed worker is a terminal error.
"""

from repro.parallel.mapreduce import (
    MapReduceBetweenness,
    MapReduceUpdateReport,
    merge_partial_scores,
)
from repro.parallel.shards import ParallelBatchReport, ShardCoordinator
from repro.parallel.scaling import (
    OnlineCapacityModel,
    ScalingMeasurement,
    required_workers,
    strong_scaling,
    weak_scaling,
)
from repro.parallel.online import (
    OnlineDeadlineLedger,
    OnlineReplayResult,
    OnlineUpdateRecord,
    replay_online_updates_parallel,
    simulate_online_updates,
)

__all__ = [
    "MapReduceBetweenness",
    "MapReduceUpdateReport",
    "merge_partial_scores",
    "ParallelBatchReport",
    "ShardCoordinator",
    "OnlineCapacityModel",
    "ScalingMeasurement",
    "required_workers",
    "strong_scaling",
    "weak_scaling",
    "OnlineDeadlineLedger",
    "OnlineReplayResult",
    "OnlineUpdateRecord",
    "simulate_online_updates",
    "replay_online_updates_parallel",
]
