"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class when they do not care about the specific
failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """Base class for errors related to the graph substrate."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class EdgeExistsError(GraphError, ValueError):
    """An edge being added is already present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is already in the graph")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """Self loops are not supported by the betweenness framework."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self loop on vertex {vertex!r} is not supported")
        self.vertex = vertex


class DirectedGraphUnsupportedError(ReproError, ValueError):
    """Raised by components that only operate on undirected graphs."""


class StorageError(ReproError):
    """Base class for errors in the out-of-core storage layer."""


class StoreClosedError(StorageError, RuntimeError):
    """An operation was attempted on a closed betweenness-data store."""


class StoreCorruptedError(StorageError, ValueError):
    """On-disk betweenness data does not match the expected layout."""


class StoreExistsError(StorageError, FileExistsError):
    """Creating a store would clobber an existing non-empty file.

    Raised instead of silently truncating; reopen the file with
    :meth:`repro.storage.disk.DiskBDStore.open` to keep its data.
    """


class StoreVersionError(StoreCorruptedError):
    """The on-disk store was written by an unsupported format version."""


class PartitionError(ReproError, ValueError):
    """Invalid partitioning of the source set across workers."""


class UpdateError(ReproError, ValueError):
    """An edge update in the stream cannot be applied to the current graph."""


class WorkerFailedError(ReproError, RuntimeError):
    """A parallel worker process died or stopped responding.

    Raised by the shard coordinator instead of blocking forever on a pipe
    whose peer is gone.  With a shard root it is caught internally to
    re-seed a replacement worker from the shard's checkpoint; without one
    (the ``process`` executor) it propagates to the caller.
    """


class ConfigurationError(ReproError, ValueError):
    """Invalid configuration of an experiment or framework component."""


class SubscriberError(ReproError, RuntimeError):
    """One or more event subscribers raised while handling a session event.

    The session notifies *every* subscriber before raising, and the engine
    state the event describes was already committed when dispatch started —
    so a failing subscriber can neither starve its peers of the event nor
    leave scores half-applied.  ``failures`` holds the ``(subscriber,
    exception)`` pairs in notification order; the first underlying
    exception is chained as ``__cause__``.
    """

    def __init__(self, event: object, failures: list) -> None:
        kinds = ", ".join(type(sub).__name__ for sub, _ in failures)
        super().__init__(
            f"{len(failures)} subscriber(s) raised while handling "
            f"{type(event).__name__}: {kinds}"
        )
        self.event = event
        self.failures = list(failures)
