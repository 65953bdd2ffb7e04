"""Abstract interface of a betweenness-data store."""

from __future__ import annotations

import abc
from typing import Iterator, Optional, Tuple

from repro.algorithms.brandes import SourceData
from repro.types import Vertex


class BDStore(abc.ABC):
    """Storage backend for the per-source betweenness data ``BD[.]``.

    A store holds one :class:`~repro.algorithms.brandes.SourceData` record
    per source vertex.  The incremental framework iterates over sources,
    peeks at the distances of the two updated endpoints (to apply the
    ``dd == 0`` skip without materialising the whole record), loads the full
    record for sources that need work, and saves the repaired record back.

    Records leave a store only through this interface or, for the column
    stores, as a :class:`~repro.storage.columns.ColumnBlock` checkpoint
    payload; a framework over an already-filled store is rebuilt with
    :meth:`~repro.core.framework.IncrementalBetweenness.from_store`.
    """

    # ------------------------------------------------------------------ #
    # Record access
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def put(self, data: SourceData) -> None:
        """Insert or overwrite the record of ``data.source``."""

    @abc.abstractmethod
    def get(self, source: Vertex) -> SourceData:
        """Load the full record of ``source`` (raises ``KeyError`` if absent)."""

    @abc.abstractmethod
    def endpoint_distances(
        self, source: Vertex, u: Vertex, v: Vertex
    ) -> Tuple[Optional[int], Optional[int]]:
        """Distances of ``u`` and ``v`` from ``source`` (None = unreachable).

        Implementations should make this much cheaper than :meth:`get`; the
        out-of-core store reads exactly two values from the distance column.
        """

    @abc.abstractmethod
    def add_source(self, source: Vertex) -> None:
        """Create the record of a brand-new vertex (reaching only itself)."""

    def register_vertex(self, vertex: Vertex) -> None:
        """Make the store aware of a vertex *without* making it a source.

        Records of existing sources may reference a newly arrived vertex
        (its distance, path count and dependency) even when another worker
        owns it as a source.  Positional stores (the on-disk columnar layout)
        need to allocate a column slot before such a record can be saved;
        dictionary-backed stores need to do nothing, which is the default.
        """

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sources(self) -> Iterator[Vertex]:
        """Iterate over the sources that have a record."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored records."""

    @abc.abstractmethod
    def __contains__(self, source: Vertex) -> bool:
        """Whether ``source`` has a record."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release any resources held by the store (files, buffers)."""

    def __enter__(self) -> "BDStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
