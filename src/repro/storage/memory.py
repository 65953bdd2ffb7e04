"""In-memory betweenness-data store (the paper's "MO" configuration)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.algorithms.brandes import SourceData
from repro.exceptions import StoreClosedError
from repro.storage.base import BDStore
from repro.types import Vertex


class InMemoryBDStore(BDStore):
    """Keep every ``BD[s]`` record as live Python dictionaries in memory.

    This is the fastest configuration and the natural choice whenever the
    O(n^2) working set fits in RAM.  Records are shared by reference:
    :meth:`get` hands out the stored object and the caller's in-place repairs
    are immediately visible, so :meth:`put` after an update is effectively a
    no-op kept for interface symmetry with the disk store.

    ``records`` optionally seeds the store (in that order) without copying.
    """

    def __init__(self, records: Iterable[SourceData] = ()) -> None:
        self._records: Dict[Vertex, SourceData] = {
            data.source: data for data in records
        }
        self._closed = False

    # ------------------------------------------------------------------ #
    # Record access
    # ------------------------------------------------------------------ #
    def put(self, data: SourceData) -> None:
        self._ensure_open()
        self._records[data.source] = data

    def get(self, source: Vertex) -> SourceData:
        self._ensure_open()
        return self._records[source]

    def endpoint_distances(
        self, source: Vertex, u: Vertex, v: Vertex
    ) -> Tuple[Optional[int], Optional[int]]:
        self._ensure_open()
        record = self._records[source]
        return record.distance.get(u), record.distance.get(v)

    def add_source(self, source: Vertex) -> None:
        self._ensure_open()
        if source in self._records:
            return
        data = SourceData(source=source)
        data.distance[source] = 0
        data.sigma[source] = 1
        data.delta[source] = 0.0
        self._records[source] = data

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def sources(self) -> Iterator[Vertex]:
        self._ensure_open()
        return iter(list(self._records))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, source: Vertex) -> bool:
        return source in self._records

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._closed = True
        self._records.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the in-memory store has been closed")
