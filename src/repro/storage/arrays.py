"""In-RAM columnar betweenness-data store backing the array kernel.

:class:`ArrayBDStore` keeps the per-source records in three dense 2-D numpy
matrices — one row per *owned source*, one column per vertex slot (the
column layout :class:`repro.storage.disk.DiskBDStore` maps from its record
file, minus the file).  It implements the full
:class:`repro.storage.base.BDStore` interface, so everything that works
against the in-memory dict store (snapshots, checkpoints, the parallel
drivers) works against it, *plus* the column protocol the array-native
kernel uses:

* :meth:`record_columns` with ``writable=True`` hands out the live row
  views, so an update sweep repairs records in place with zero copies and
  zero dictionary materialisation;
* :meth:`put_columns` bulk-writes a freshly computed record (the vectorized
  Brandes bootstrap path);
* :meth:`peek_distance_block` serves the Proposition 3.1 skip test for a
  whole batch and every source in one fancy-indexed gather.

Rows are indexed through a source → row mapping rather than by global
vertex slot, so a *restricted* instance (one mapper's partition) allocates
``owned_sources × capacity`` cells, not ``capacity × capacity`` — memory
stays proportional to the partition, exactly like the dict store.  Both
dimensions grow geometrically as stream-born vertices and adopted sources
arrive, mirroring the disk store's growth policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.exceptions import (
    ConfigurationError,
    StoreClosedError,
    StoreCorruptedError,
)
from repro.storage.base import BDStore
from repro.storage.buffers import (
    GenerationStamp,
    ShmDescriptor,
    attach_bundle,
    get_allocator,
)
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    decode_record_arrays,
    encode_record_arrays,
)
from repro.storage.index import VertexIndex
from repro.types import UNREACHABLE, Vertex

#: Headroom factor applied when a dimension outgrows its allocation.
GROWTH_FACTOR = 1.25


class ArrayBDStore(BDStore):
    """Dense columnar ``BD[.]`` store held in RAM.

    Parameters
    ----------
    vertices:
        Initial vertex set; every vertex receives a column slot.
    capacity:
        Column slots to pre-allocate; defaults to the vertex count with
        headroom.
    sources:
        Vertices that start as sources (identity records).  Defaults to
        *none* — the framework's bootstrap fills records in source order,
        which keeps :meth:`sources` iteration order identical to the dict
        backend's put order.  Pass an iterable (or ``None`` for "all
        vertices") to mirror :class:`~repro.storage.disk.DiskBDStore`'s
        construction.
    row_capacity:
        Source rows to pre-allocate.  A caller that knows how many sources
        it will own (the framework does) passes it to avoid incremental
        row growth during the bootstrap; otherwise rows grow geometrically
        on demand.
    directed:
        Declared orientation of the graph the records describe, or ``None``
        (default) for orientation-agnostic.  No layout changes either way —
        the flag only lets the framework refuse pairing the store with a
        graph of the other orientation, mirroring the disk store's header
        bit.
    allocator:
        ``"heap"`` (default — plain numpy, exactly the pre-seam behavior)
        or ``"shm"`` — the column matrices then live in named
        shared-memory segments this store owns, exportable to other
        processes via :meth:`export_column_descriptors`.  Growth
        re-allocates a *new generation* of segments, bumps the store's
        generation stamp and unlinks the old ones, so descriptors exported
        earlier are refused at attach time instead of silently pointing at
        dead or resized memory.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        capacity: Optional[int] = None,
        sources: Optional[Iterable[Vertex]] = (),
        row_capacity: Optional[int] = None,
        directed: Optional[bool] = None,
        allocator=None,
    ) -> None:
        self.directed = directed
        self._allocator = get_allocator(allocator, hint="arrays")
        self._generation = 0
        self._stamp = (
            GenerationStamp.create("arrays")
            if self._allocator.kind == "shm"
            else None
        )
        self._column_buffers: List = []
        self._index = VertexIndex(vertices)
        initial = len(self._index)
        if capacity is None:
            capacity = max(initial, int(initial * GROWTH_FACTOR), 16)
        if capacity < initial:
            raise StoreCorruptedError(
                f"capacity {capacity} is smaller than the vertex count {initial}"
            )
        self._capacity = capacity
        if sources is None:
            sources = self._index.vertices()
        source_list = list(sources)
        self._row_capacity = max(row_capacity or 0, len(source_list), 16)
        self._allocate(self._row_capacity, capacity)
        self._row_of: Dict[Vertex, int] = {}
        # Slot -> matrix row (-1 when the slot's vertex has no record yet);
        # the vectorized peek path indexes this directly instead of going
        # label dict -> row dict per source.
        self._row_of_slot = np.full(capacity, -1, dtype=np.int64)
        self._source_list: List[Vertex] = []
        self._closed = False
        for source in source_list:
            self.add_source(source)

    def _allocate(self, rows: int, columns: int) -> None:
        alloc = self._allocator
        dist = alloc.full((rows, columns), DISTANCE_DTYPE, UNREACHABLE)
        sigma = alloc.zeros((rows, columns), SIGMA_DTYPE)
        delta = alloc.zeros((rows, columns), DELTA_DTYPE)
        self._column_buffers = [dist, sigma, delta]
        self._dist = dist.array
        self._sigma = sigma.array
        self._delta = delta.array

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def vertex_index(self) -> VertexIndex:
        """The store's vertex/slot assignment (shared with the kernel)."""
        return self._index

    @property
    def capacity(self) -> int:
        """Number of allocated vertex (column) slots per record."""
        return self._capacity

    @property
    def columns_in_place(self) -> bool:
        """Writable column views alias the store (no write-back needed)."""
        return True

    @property
    def shared(self) -> bool:
        """Whether the column matrices live in shared-memory segments."""
        return bool(self._column_buffers) and self._column_buffers[0].shared

    @property
    def generation(self) -> int:
        """Segment generation; bumps whenever growth re-allocates columns."""
        return self._generation

    # ------------------------------------------------------------------ #
    # BDStore interface
    # ------------------------------------------------------------------ #
    def put(self, data: SourceData) -> None:
        self._ensure_open()
        if data.source not in self._index:
            self.register_vertex(data.source)
        distance, sigma, delta = encode_record_arrays(
            data, self._index, self._capacity
        )
        self.put_columns(data.source, distance, sigma, delta)

    def get(self, source: Vertex) -> SourceData:
        self._ensure_open()
        row = self._row(source)
        return decode_record_arrays(
            self._dist[row], self._sigma[row], self._delta[row],
            source, self._index,
        )

    def endpoint_distances(
        self, source: Vertex, u: Vertex, v: Vertex
    ) -> Tuple[Optional[int], Optional[int]]:
        self._ensure_open()
        distances = self._dist[self._row(source)]
        result: List[Optional[int]] = []
        for vertex in (u, v):
            if vertex not in self._index:
                result.append(None)
                continue
            value = int(distances[self._index.slot(vertex)])
            result.append(None if value == UNREACHABLE else value)
        return result[0], result[1]

    def add_source(self, source: Vertex) -> None:
        self._ensure_open()
        if source in self._row_of:
            return
        if source not in self._index:
            self.register_vertex(source)
        row = self._new_row(source)
        slot = self._index.slot(source)
        self._dist[row, slot] = 0
        self._sigma[row, slot] = 1
        self._delta[row, slot] = 0.0

    def register_vertex(self, vertex: Vertex) -> None:
        self._ensure_open()
        if vertex in self._index:
            return
        self._index.add(vertex)
        if len(self._index) > self._capacity:
            self._grow_columns()

    def sources(self) -> Iterator[Vertex]:
        self._ensure_open()
        return iter(list(self._source_list))

    def __len__(self) -> int:
        return len(self._source_list)

    def __contains__(self, source: Vertex) -> bool:
        return source in self._row_of

    def close(self) -> None:
        self._closed = True
        self._dist = self._sigma = self._delta = None  # type: ignore[assignment]
        for buffer in self._column_buffers:
            buffer.release()
        self._column_buffers = []
        if self._stamp is not None:
            self._stamp.release()
            self._stamp = None
        self._source_list = []
        self._row_of = {}
        self._row_of_slot = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Shared-memory export / attach
    # ------------------------------------------------------------------ #
    def export_column_descriptors(self) -> dict:
        """Descriptor bundle another process can :meth:`attach` to.

        Only shm-allocated stores export; the bundle carries the segment
        descriptors (stamped with the current generation), the stamp
        segment's name, and the label-side metadata (vertex order, source
        order, capacities) needed to rebuild the row/column mappings
        exactly.  Everything is plain picklable data a few hundred bytes
        long — the whole point is that the matrices themselves stay put.
        """
        self._ensure_open()
        if not self.shared:
            raise ConfigurationError(
                "only shm-allocated array stores can export descriptors "
                "(construct with allocator='shm')"
            )
        return {
            "stamp": self._stamp.name,
            "generation": self._generation,
            "columns": [
                buffer.descriptor(self._generation).to_payload()
                for buffer in self._column_buffers
            ],
            "vertices": list(self._index.vertices()),
            "sources": list(self._source_list),
            "capacity": self._capacity,
            "row_capacity": self._row_capacity,
            "directed": self.directed,
        }

    @classmethod
    def attach(cls, payload: dict, writable: bool = True) -> "ArrayBDStore":
        """Map another process's exported column matrices as a live store.

        Refuses stale bundles (the owner's stamp no longer matches the
        descriptors' generation).  The attached store never unlinks the
        segments — that is the owner's job; :meth:`close` here only drops
        the local mappings.  If the attached store itself grows, growth
        re-allocates into private heap arrays, detaching naturally.
        """
        descriptors = [
            ShmDescriptor.from_payload(entry) for entry in payload["columns"]
        ]
        buffers = attach_bundle(
            descriptors, stamp_name=payload.get("stamp"), writable=writable
        )
        self = cls.__new__(cls)
        self.directed = payload.get("directed")
        self._allocator = get_allocator("heap")
        self._generation = int(payload.get("generation", 0))
        self._stamp = None
        self._column_buffers = list(buffers)
        self._dist, self._sigma, self._delta = (b.array for b in buffers)
        self._index = VertexIndex(payload["vertices"])
        self._capacity = int(payload["capacity"])
        self._row_capacity = int(payload["row_capacity"])
        self._row_of = {}
        self._row_of_slot = np.full(self._capacity, -1, dtype=np.int64)
        self._source_list = []
        self._closed = False
        for row, source in enumerate(payload["sources"]):
            self._row_of[source] = row
            self._row_of_slot[self._index.slot(source)] = row
            self._source_list.append(source)
        return self

    # ------------------------------------------------------------------ #
    # Column protocol (array kernel)
    # ------------------------------------------------------------------ #
    def record_columns(
        self, source: Vertex, writable: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(distance, sigma, delta)`` row views of one record.

        The views alias the store, so with ``writable=True`` the caller's
        in-place repairs *are* the persisted record.
        """
        self._ensure_open()
        row = self._row(source)
        return self._dist[row], self._sigma[row], self._delta[row]

    def put_columns(
        self,
        source: Vertex,
        distance: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
    ) -> None:
        """Bulk-write one record's columns (shorter-than-capacity allowed).

        Column slots beyond ``len(distance)`` keep their "unreachable"
        defaults, which is exactly what a record computed before later
        vertices were registered should contain.
        """
        self._ensure_open()
        if source not in self._index:
            self.register_vertex(source)
        row = self._row_of.get(source)
        if row is None:
            row = self._new_row(source)
        k = len(distance)
        self._dist[row, :k] = distance
        self._sigma[row, :k] = sigma
        self._delta[row, :k] = delta

    def record_written(self, source: Vertex) -> None:
        """Accounting hook after an in-place repair (no-op in RAM)."""
        self._ensure_open()

    def column_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(distance, sigma, delta)`` matrices, rows = sources.

        The arrays alias the store (capacity-padded columns included) and
        are *replaced* on row growth — callers must re-fetch after any
        :meth:`add_source` that may grow the matrices.  This is the bulk
        form of :meth:`record_columns` behind the kernel's cohort repair.
        """
        self._ensure_open()
        return self._dist, self._sigma, self._delta

    def row_of_source_slot(self, slot: int) -> int:
        """Matrix row of the source with vertex slot ``slot``."""
        self._ensure_open()
        row = int(self._row_of_slot[slot])
        if row < 0:
            raise KeyError(self._index.vertex(slot))
        return row

    def peek_distance_block(
        self, source_slots: Sequence[int], vertex_slots: Sequence[int]
    ) -> np.ndarray:
        """Distances of ``vertex_slots`` from every slot in ``source_slots``.

        ``source_slots`` are global vertex slots (the kernel's currency);
        they are translated to matrix rows internally.  Returns a
        ``(len(source_slots), len(vertex_slots))`` int16 array — the
        vectorized form of :meth:`endpoint_distances` the kernel's batched
        skip test consumes.
        """
        self._ensure_open()
        src = np.asarray(source_slots, dtype=np.int64)
        rows = self._row_of_slot[src]
        if rows.size and int(rows.min()) < 0:
            missing = int(src[int(np.argmin(rows))])
            raise KeyError(self._index.vertex(missing))
        cols = np.asarray(vertex_slots, dtype=np.int64)
        return self._dist[rows[:, None], cols[None, :]]

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def _row(self, source: Vertex) -> int:
        try:
            return self._row_of[source]
        except KeyError:
            raise KeyError(source) from None

    def _new_row(self, source: Vertex) -> int:
        row = len(self._source_list)
        if row >= self._row_capacity:
            self._grow_rows()
        self._row_of[source] = row
        self._row_of_slot[self._index.slot(source)] = row
        self._source_list.append(source)
        return row

    def _grow_rows(self) -> None:
        old_rows = self._row_capacity
        new_rows = max(int(old_rows * GROWTH_FACTOR) + 1, old_rows + 1)
        old_buffers = self._column_buffers
        dist, sigma, delta = self._dist, self._sigma, self._delta
        self._allocate(new_rows, self._capacity)
        self._dist[:old_rows] = dist
        self._sigma[:old_rows] = sigma
        self._delta[:old_rows] = delta
        del dist, sigma, delta
        self._row_capacity = new_rows
        self._republish(old_buffers)

    def _grow_columns(self) -> None:
        old = self._capacity
        new_capacity = max(int(old * GROWTH_FACTOR) + 1, len(self._index))
        old_buffers = self._column_buffers
        dist, sigma, delta = self._dist, self._sigma, self._delta
        self._allocate(self._row_capacity, new_capacity)
        self._dist[:, :old] = dist
        self._sigma[:, :old] = sigma
        self._delta[:, :old] = delta
        del dist, sigma, delta
        grown = np.full(new_capacity, -1, dtype=np.int64)
        grown[:old] = self._row_of_slot
        self._row_of_slot = grown
        self._capacity = new_capacity
        self._republish(old_buffers)

    def _republish(self, old_buffers: List) -> None:
        """Retire a superseded allocation generation.

        The old buffers are released (owned segments unlinked) and the
        generation advances — both in the picklable counter that lands in
        future descriptors and, for shm stores, in the live stamp segment
        that invalidates descriptors exported before the growth.
        """
        for buffer in old_buffers:
            buffer.release()
        self._generation += 1
        if self._stamp is not None:
            self._stamp.bump()

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the array store has been closed")
