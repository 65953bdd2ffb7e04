"""Structured events emitted by a :class:`~repro.api.session.BetweennessSession`.

The session is event-driven: every state change (bootstrap, update, batch,
checkpoint, worker failure and recovery, shutdown) is published to
subscribers as a typed, immutable event object.  Downstream consumers — top-k rank tracking, online deadline
accounting, progress logging, metrics export — are *subscribers* rather
than parallel reimplementations of the update loop, so they compose: one
stream pass can feed all of them.

A subscriber is either a plain callable taking one event, or an object
implementing :class:`SessionSubscriber` (which additionally receives the
session itself at subscription time, letting it query scores or rankings
when events arrive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Tuple, Union

from repro.core.updates import EdgeUpdate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.api.session import BetweennessSession


@dataclass(frozen=True)
class SessionEvent:
    """Base class of every session event.

    ``sequence`` is the session-wide event counter (0-based, gap-free), so
    a subscriber can order or deduplicate events without trusting wall
    clocks.
    """

    sequence: int


@dataclass(frozen=True)
class BootstrapCompleted(SessionEvent):
    """Step 1 finished: the per-source data exists and scores are exact."""

    num_vertices: int = 0
    num_edges: int = 0
    num_sources: int = 0


@dataclass(frozen=True)
class UpdateApplied(SessionEvent):
    """One edge update was applied through :meth:`BetweennessSession.apply`.

    The update is a batch of one, so ``batch_index`` counts it among the
    session's batches (0-based, shared with :class:`BatchApplied`).
    ``result`` is the engine's result object — an
    :class:`~repro.core.result.UpdateResult` under the serial executor, a
    :class:`~repro.parallel.shards.ParallelBatchReport` under ``process``
    and ``shard``.
    """

    update: EdgeUpdate = None  # type: ignore[assignment]
    result: Any = None
    batch_index: int = 0


@dataclass(frozen=True)
class BatchApplied(SessionEvent):
    """One batch of updates completed a full source sweep.

    ``batch_index`` counts batches within the session (0-based).  ``result``
    is the engine's batch result (see :class:`UpdateApplied` for the
    per-executor types).
    """

    updates: Tuple[EdgeUpdate, ...] = ()
    result: Any = None
    batch_index: int = 0


@dataclass(frozen=True)
class CheckpointWritten(SessionEvent):
    """A checkpoint sidecar (with the session config embedded) was written."""

    path: str = ""


@dataclass(frozen=True)
class WorkerFailed(SessionEvent):
    """A shard worker process died or stopped responding (shard executor).

    Emitted *before* recovery starts; a :class:`ShardRecovered` follows once
    the replacement worker is live again.  ``batch_cursor`` is the batch the
    ensemble was applying (or had applied) when the failure was detected.
    """

    shard: int = 0
    error: str = ""
    batch_cursor: int = 0


@dataclass(frozen=True)
class ShardRecovered(SessionEvent):
    """A dead shard worker was replaced from its checkpoint (shard executor).

    ``replayed_batches`` counts the logged batches applied on top of the
    shard checkpoint to catch the replacement up — the recovery cost beyond
    loading the checkpoint itself, which ``seconds`` measures end to end.
    """

    shard: int = 0
    replayed_batches: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class SessionClosed(SessionEvent):
    """The session released its engine and stores; no further events follow."""


class SessionSubscriber:
    """Base class for stateful event subscribers.

    Subclasses override :meth:`on_event` (required) and optionally
    :meth:`attach`, which runs once at subscription time and hands over the
    session — the natural place to grab initial rankings or scores.
    """

    def attach(self, session: "BetweennessSession") -> None:
        """Called once when subscribed; default does nothing."""

    def on_event(self, event: SessionEvent) -> None:
        """Called for every event the session emits, in order."""
        raise NotImplementedError


#: Anything :meth:`BetweennessSession.subscribe` accepts.
Subscriber = Union[SessionSubscriber, Callable[[SessionEvent], None]]
