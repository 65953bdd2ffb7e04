"""Online-update replay: can the framework keep up with edge arrivals?

The online experiments of the paper (Figure 8, Table 5) replay real edge
arrivals with their timestamps and compare, for every arriving edge, the
time needed to refresh the betweenness scores against the inter-arrival
time.  An update "misses" its deadline when the system is still busy when
the next edge arrives; Table 5 reports the fraction of missed edges and the
average delay as the number of mappers grows.

Both replay flavours are built on the unified session API: the stream is
driven through :meth:`repro.api.BetweennessSession.stream` and the deadline
accounting is an event **subscriber** (:class:`OnlineDeadlineLedger`)
consuming the emitted :class:`~repro.api.events.BatchApplied` events — not
a parallel reimplementation of the update loop.  What differs between the
flavours is only where processing time comes from:

* :func:`simulate_online_updates` — the update is actually processed once,
  on a single machine, and its measured cost is divided across ``p``
  simulated mappers through the capacity model of Section 5.3
  (``tU = tS * n/p + tM``);
* :func:`replay_online_updates_parallel` — the batch runs on the real
  multiprocessing executor and the slowest worker's measured time is used
  directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.framework import IncrementalBetweenness
from repro.core.updates import EdgeUpdate
from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.parallel.scaling import OnlineCapacityModel


@dataclass(frozen=True)
class OnlineUpdateRecord:
    """Outcome of one replayed edge arrival.

    ``processing_time`` is the time of the *processing unit* the update
    belonged to: the update itself when replaying one at a time, or the
    whole enclosing batch when ``batch_size > 1`` (all members of a batch
    start and complete together, so the batch time is the quantity the
    deadline accounting uses — do not sum it across members of one batch).
    """

    update: EdgeUpdate
    interarrival_time: float
    processing_time: float
    delay: float

    @property
    def missed(self) -> bool:
        """True when the update was not finished before the next arrival."""
        return self.delay > 0.0


@dataclass
class OnlineReplayResult:
    """Aggregate outcome of an online replay (one Table 5 row)."""

    num_mappers: int
    records: List[OnlineUpdateRecord] = field(default_factory=list)
    batch_size: int = 1

    @property
    def num_updates(self) -> int:
        """Number of replayed arrivals."""
        return len(self.records)

    @property
    def num_missed(self) -> int:
        """Arrivals whose processing finished after the next arrival."""
        return sum(1 for record in self.records if record.missed)

    @property
    def missed_fraction(self) -> float:
        """Fraction of missed arrivals (the "% missed" column of Table 5)."""
        if not self.records:
            return 0.0
        return self.num_missed / len(self.records)

    @property
    def average_delay(self) -> float:
        """Average delay of the missed arrivals, in seconds (0 when none)."""
        delays = [record.delay for record in self.records if record.missed]
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    def as_table_row(self) -> tuple:
        """Return ``(mappers, % missed, average delay)`` as in Table 5."""
        return (self.num_mappers, 100.0 * self.missed_fraction, self.average_delay)


class OnlineDeadlineLedger:
    """Session subscriber performing the single-server deadline accounting.

    Subscribed to a session and fed by its :class:`BatchApplied` events, it
    reproduces the paper's queueing semantics: a batch becomes runnable when
    its last member arrives, every member completes when the batch does, and
    a member is late when that completion falls after its own next-arrival
    deadline.  ``processing_time_of`` maps one event to the batch's
    processing time in (simulated or measured) seconds — the only thing the
    two replay flavours disagree about.
    """

    def __init__(
        self,
        arrivals: Sequence[float],
        num_mappers: int,
        batch_size: int,
        processing_time_of: Callable[[object], float],
    ) -> None:
        self._arrivals = list(arrivals)
        self._processing_time_of = processing_time_of
        self._busy_until = 0.0
        self._position = 0
        self.result = OnlineReplayResult(
            num_mappers=num_mappers, batch_size=batch_size
        )

    # The subscriber protocol: the session hands every event here; only
    # completed batches matter for the accounting.
    def attach(self, session) -> None:  # pragma: no cover - nothing to grab
        pass

    def on_event(self, event) -> None:
        from repro.api.events import BatchApplied

        if not isinstance(event, BatchApplied) or not event.updates:
            return
        chunk = event.updates
        chunk_start = self._position
        self._position += len(chunk)
        arrivals = self._arrivals
        ready = arrivals[self._position - 1]
        processing_time = self._processing_time_of(event)
        start_time = max(ready, self._busy_until)
        completion = start_time + processing_time
        self._busy_until = completion

        for offset, update in enumerate(chunk):
            index = chunk_start + offset
            interarrival = (
                float("inf") if index == 0 else arrivals[index] - arrivals[index - 1]
            )
            # An update is "on time" when it completes before the next
            # arrival; the last update of the stream cannot be late.
            if index + 1 < len(arrivals):
                deadline = arrivals[index + 1]
            else:
                deadline = completion + 1.0
            self.result.records.append(
                OnlineUpdateRecord(
                    update=update,
                    interarrival_time=interarrival,
                    processing_time=processing_time,
                    delay=max(0.0, completion - deadline),
                )
            )


def simulate_online_updates(
    graph: Graph,
    updates: Sequence[EdgeUpdate],
    num_mappers: int = 1,
    merge_time: float = 0.0,
    framework: Optional[IncrementalBetweenness] = None,
    time_scale: float = 1.0,
    batch_size: int = 1,
    backend: str = "dicts",
    store: str = "memory://",
) -> OnlineReplayResult:
    """Replay timestamped ``updates`` on ``graph`` and account for deadlines.

    Parameters
    ----------
    graph:
        Graph as of the start of the replay.
    updates:
        Timestamped updates (additions and/or removals), in arrival order.
        Every update must carry a timestamp.
    num_mappers:
        Number of simulated workers ``p``.  The update is actually processed
        once, on a single machine; its measured per-source cost is then
        divided across ``p`` workers through the capacity model
        ``tU = tS * n/p + tM``.
    merge_time:
        The model's ``tM`` (seconds).
    framework:
        Optionally reuse an existing engine instance (must have been built
        on ``graph``); it is wrapped in a session as-is.  A fresh serial
        session is opened otherwise.
    time_scale:
        Multiplier applied to inter-arrival times, handy for exploring
        "what if edges arrived k times faster" scenarios.
    batch_size:
        Process arrivals in batches of up to this many updates.  A batch
        starts processing only once its last member has arrived, so
        batching trades per-update latency for amortised ``BD`` sweeps; the
        per-update records account for that waiting honestly.
    backend:
        Compute backend (``"dicts"`` or ``"arrays"``) of the session opened
        here; ignored when an existing ``framework`` is passed in.
    store:
        Store URI for the session's ``BD[.]`` records (the single machine
        that really processes each update).  Ignored when ``framework`` is
        passed in.

    Notes
    -----
    The simulation uses a single-server queue per the paper's description: if
    the previous update is still being processed when a new edge arrives, the
    new update waits; the reported delay of an update is the time between its
    arrival and the moment its processing completes, minus nothing — i.e. a
    delay of zero means it finished before the next arrival.
    """
    # Imported lazily: the api layer imports this package's executors, so a
    # module-level import would be circular.
    from repro.api.config import BetweennessConfig
    from repro.api.session import BetweennessSession

    if num_mappers < 1:
        raise ConfigurationError(f"num_mappers must be >= 1, got {num_mappers}")
    _check_batch_size(batch_size)
    arrivals = _relative_arrivals(updates, time_scale)

    if framework is not None:
        session = BetweennessSession.from_framework(framework)
    else:
        session = BetweennessSession(
            graph,
            BetweennessConfig.for_graph(
                graph,
                backend=backend,
                batch_size=batch_size,
                store=store,
            ),
        )

    def measure(event) -> float:
        outcome = event.result
        pair_sweeps = max(1, outcome.sources_processed)
        model = OnlineCapacityModel(
            time_per_source=(outcome.elapsed_seconds or 0.0) / pair_sweeps,
            num_sources=pair_sweeps,
            merge_time=merge_time,
        )
        return model.update_time(num_mappers)

    ledger = session.subscribe(
        OnlineDeadlineLedger(arrivals, num_mappers, batch_size, measure)
    )
    for _ in session.stream(updates, batch_size=batch_size):
        pass
    return ledger.result


def replay_online_updates_parallel(
    graph: Graph,
    updates: Sequence[EdgeUpdate],
    num_workers: int = 1,
    batch_size: int = 1,
    time_scale: float = 1.0,
    store: str = "memory://",
    use_cpu_time: bool = True,
    source_store_path=None,
    backend: str = "dicts",
    recv_timeout=None,
) -> OnlineReplayResult:
    """Measured online replay on the real process-parallel executor.

    Unlike :func:`simulate_online_updates`, which processes every update on
    one machine and *derives* cluster time from the capacity model, this
    replay opens a ``process``-executor session (one restricted framework
    per worker process) and uses the workers' measured times directly.

    Parameters
    ----------
    num_workers:
        Worker processes (real mappers).
    batch_size:
        Updates per executor round; see :func:`simulate_online_updates`.
    store:
        Per-worker ``BD`` store: a store URI (``memory://``, ``disk://``;
        path-less, since each worker owns a private temporary store).
    use_cpu_time:
        Account the slowest worker's *CPU* time as the processing time
        (default), which models every mapper owning a dedicated core — the
        paper's shared-nothing cluster — even when this host timeshares the
        workers over fewer physical cores.  Pass ``False`` to account raw
        worker wall-clock instead.
    source_store_path:
        Optional durable :class:`~repro.storage.disk.DiskBDStore` file each
        worker reopens to seed its partition's records, skipping the Brandes
        bootstrap.
    backend:
        Compute backend every worker runs its partition on (``"dicts"`` or
        ``"arrays"``).
    recv_timeout:
        Per-reply worker timeout in seconds (``None`` waits forever).
    """
    from repro.api.config import BetweennessConfig
    from repro.api.session import BetweennessSession

    _check_batch_size(batch_size)
    arrivals = _relative_arrivals(updates, time_scale)
    config = BetweennessConfig(
        backend=backend,
        directed=graph.directed,
        batch_size=batch_size,
        executor="process",
        workers=num_workers,
        store=store,
        seed_store_path=(
            str(source_store_path) if source_store_path is not None else None
        ),
        recv_timeout=recv_timeout,
    )

    def measure(event) -> float:
        report = event.result
        if use_cpu_time:
            return report.max_cpu_seconds
        return report.wall_clock_seconds

    with BetweennessSession(graph, config) as session:
        ledger = session.subscribe(
            OnlineDeadlineLedger(arrivals, num_workers, batch_size, measure)
        )
        for _ in session.stream(updates):
            pass
        return ledger.result


def _check_batch_size(batch_size: int) -> None:
    """Reject a bad batch size before any expensive bootstrap runs."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")


def _relative_arrivals(
    updates: Sequence[EdgeUpdate], time_scale: float
) -> List[float]:
    """Validate the stream and convert timestamps to relative arrival times."""
    if not updates:
        raise ConfigurationError("need at least one update to replay")
    if any(update.timestamp is None for update in updates):
        raise ConfigurationError("every replayed update needs a timestamp")
    first_arrival = updates[0].timestamp
    return [(update.timestamp - first_arrival) * time_scale for update in updates]
