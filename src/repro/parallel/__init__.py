"""Parallel execution, scaling models and online-update simulation.

Section 5 of the paper makes the incremental algorithm practical at scale by
exploiting its embarrassing parallelism over sources: the per-source data is
partitioned across ``p`` shared-nothing workers, each worker repairs its own
partition for every update, and partial betweenness scores are summed by a
reducer (the MapReduce embodiment of Figure 4).  Section 5.3 derives the
online-capacity model ``tU = tS * n / p + tM`` that predicts how many
workers are needed to keep up with a given edge-arrival rate.

One engine partitions sources: :class:`ShardCoordinator` runs each mapper
as a real OS worker process that owns one partition's restricted framework;
the initial Brandes phase and every update batch run concurrently, and the
reduce step (:func:`merge_partial_scores`) sums the measured partial scores
in partition order (one :class:`ParallelBatchReport` per batch, with every
worker's wall and CPU seconds).

Given a ``shard://`` root the coordinator's partitions are first-class
**shards** with durable per-shard state: workers checkpoint at a configurable
cadence, a dead or wedged worker is replaced from the shard's checkpoint
(replaying only the batches it missed), and the whole ensemble can be resumed
from disk alone.  Without a root the same workers run with no disk state, and
a failed worker is a terminal error.
"""

from repro.parallel.shards import (
    ParallelBatchReport,
    ShardCoordinator,
    merge_partial_scores,
)
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
