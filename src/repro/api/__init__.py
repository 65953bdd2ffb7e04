"""Unified service layer: declarative config, sessions, events, subscribers.

This package is the supported public way to run the system (see
``docs/api.md``):

* :class:`BetweennessConfig` — one frozen, JSON-serializable object holding
  every knob (backend, orientation, batching, executor, workers, store URI,
  checkpoint policy);
* :class:`BetweennessSession` — one facade over the serial, batched,
  out-of-core, process-parallel and fault-tolerant sharded execution
  modes, with an event stream subscribers hook into;
* :func:`open_session` / :func:`resume_session` — build a session from a
  graph + config, or from nothing but a checkpoint path (the config travels
  inside the sidecar).

The engine classes underneath (:class:`IncrementalBetweenness`, the
executors, the stores) remain importable for advanced use, but new code —
and every CLI subcommand, application and harness in this repository —
goes through this layer.
"""

from repro.api.config import EXECUTORS, BetweennessConfig
from repro.api.events import (
    BatchApplied,
    BootstrapCompleted,
    CheckpointWritten,
    SessionClosed,
    SessionEvent,
    SessionSubscriber,
    ShardRecovered,
    UpdateApplied,
    WorkerFailed,
)
from repro.api.session import (
    BetweennessSession,
    SessionSnapshot,
    open_session,
    resume_session,
)
from repro.api.subscribers import TopKSnapshot, TopKTracker

__all__ = [
    "BetweennessConfig",
    "EXECUTORS",
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
]
