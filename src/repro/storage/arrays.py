"""The column store: ``BD[.]`` records as rows of three dense matrices.

:class:`ArrayBDStore` keeps the per-source records in three 2-D numpy
matrices — distance, sigma and delta — with one row per *owned source* and
one column per vertex slot.  It implements the full
:class:`repro.storage.base.BDStore` interface, so everything that works
against the in-memory dict store (checkpoints, the parallel drivers)
works against it, *plus* the column protocol the array-native
kernel uses:

* :meth:`column_matrices` hands out the live matrices, C-contiguous
  ``(row_capacity, capacity)`` arrays in which the pair ``(row, slot)``
  has the flat id ``row * capacity + slot``; the kernel's cohort sweep
  classifies, repairs and accumulates in place at those ids, with zero
  record copies and zero dictionary materialisation, after
  :meth:`sweep_rows` has opened the rows it sweeps;
* :meth:`put_columns` bulk-writes a freshly computed record (the vectorized
  Brandes bootstrap path);
* :meth:`peek_distance_block` serves the Proposition 3.1 skip test for a
  whole batch in one fancy-indexed gather, and :meth:`record_columns` one
  record's row views.

Rows are indexed through a source → row map rather than by vertex slot, so
a *restricted* instance (one mapper's partition) allocates ``owned_sources
× capacity`` cells, not ``capacity × capacity``.  Both dimensions grow
geometrically as stream-born vertices and adopted sources arrive
(:meth:`_resize`).

Row order is iteration order: :meth:`sources` yields the sources in the
order their rows were added, and that order fixes the float order of every
fold over the store (score rebuilds, exported checkpoint rows, the
kernel's load order).  The sources passed to the constructor get their
rows in *slot* order, whatever order they are listed in; every later
source is appended.

The durable :class:`~repro.storage.disk.DiskBDStore` is this class with the
three matrices mapped from a file; it overrides only the allocation and the
no-op durability hooks (:meth:`_mark_dirty`, :meth:`_sync_metadata`,
:meth:`_resized`).  Both count the bytes their record paths move
(``_bytes_read`` / ``_bytes_written``, a whole record per record read or
written; :meth:`sweep_rows` charges each record it opens as both); the
disk store reports them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.exceptions import StoreClosedError, StoreCorruptedError
from repro.storage.base import BDStore
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    check_ranges,
    decode_record_arrays,
    encode_record_arrays,
    record_size,
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
        Vertices that start as sources (identity records, rows in slot
        order); ``None`` means all of ``vertices``.  Defaults to *none* —
        the framework's bootstrap fills records in source order, which
        keeps :meth:`sources` iteration order identical to the dict
        backend's put order.
    row_capacity:
        Source rows to pre-allocate.  A caller that knows how many sources
        it will own (the framework does) passes it to avoid incremental
        row growth during the bootstrap; otherwise rows grow geometrically
        on demand.
    directed:
        Declared orientation of the graph the records describe, or ``None``
        (default) for orientation-agnostic.  No layout changes either way —
        the flag only lets the framework refuse pairing the store with a
        graph of the other orientation.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        capacity: Optional[int] = None,
        sources: Optional[Iterable[Vertex]] = (),
        row_capacity: Optional[int] = None,
        directed: Optional[bool] = None,
    ) -> None:
        index = VertexIndex(vertices)
        initial = len(index)
        if capacity is None:
            capacity = max(initial, int(initial * GROWTH_FACTOR), 16)
        if capacity < initial:
            raise StoreCorruptedError(
                f"capacity {capacity} is smaller than the vertex count {initial}"
            )
        wanted = set(index.vertices() if sources is None else sources)
        unknown = wanted.difference(index.vertices())
        if unknown:
            raise StoreCorruptedError(
                f"sources {sorted(map(repr, unknown))} are not among the "
                "store's vertices"
            )
        owned = [vertex for vertex in index.vertices() if vertex in wanted]
        self._attach(
            index, capacity, max(row_capacity or 0, len(owned), 16), directed
        )
        self._allocate(self._row_capacity, capacity)
        self._attach_rows(owned, range(len(owned)))
        rows = np.arange(len(owned))
        slots = self._row_slots(owned)
        self._dist[rows, slots] = 0
        self._sigma[rows, slots] = 1
        self._delta[rows, slots] = 0.0

    def _attach(
        self,
        index: VertexIndex,
        capacity: int,
        row_capacity: int,
        directed: Optional[bool],
    ) -> None:
        """Instance state shared by every constructor (matrices excluded)."""
        self.directed = directed
        self._index = index
        self._capacity = capacity
        self._row_capacity = row_capacity
        self._record_bytes = record_size(capacity)
        self._closed = False
        self._bytes_read = 0
        self._bytes_written = 0

    def _attach_rows(self, sources: Sequence[Vertex], rows: Iterable[int]) -> None:
        """Install the source → row map (``sources`` in row order)."""
        rows = list(rows)
        self._source_list: List[Vertex] = list(sources)
        self._row_of: Dict[Vertex, int] = dict(zip(sources, rows))
        # Slot -> matrix row (-1 when the slot's vertex has no record); the
        # vectorized peek path indexes this directly.
        self._row_of_slot = np.full(self._capacity, -1, dtype=np.int64)
        self._row_of_slot[self._row_slots(sources)] = rows
        self._row_count = max(rows, default=-1) + 1

    def _row_slots(self, sources: Sequence[Vertex]) -> np.ndarray:
        return np.fromiter(
            (self._index.slot(source) for source in sources),
            dtype=np.int64,
            count=len(sources),
        )

    def _allocate(self, rows: int, columns: int) -> None:
        """Fresh ``rows x columns`` matrices of empty records."""
        self._dist = np.full((rows, columns), UNREACHABLE, DISTANCE_DTYPE)
        self._sigma = np.zeros((rows, columns), SIGMA_DTYPE)
        self._delta = np.zeros((rows, columns), DELTA_DTYPE)

    @classmethod
    def from_columns(
        cls,
        vertices: Sequence[Vertex],
        sources: Sequence[Vertex],
        distance: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
        directed: Optional[bool] = None,
    ) -> "ArrayBDStore":
        """A store whose rows are ``sources`` and whose slots are ``vertices``.

        ``distance``/``sigma``/``delta`` are ``[len(sources), k]`` matrices
        (``k <= len(vertices)``; later slots stay unreachable), copied in
        with one bulk write per column — the import half of
        :mod:`repro.storage.columns`.  Rows keep the given order.
        """
        self = cls(vertices, sources=(), row_capacity=len(sources), directed=directed)
        self._mark_dirty()
        for source in sources:
            self._new_row(source)
        self._sync_metadata()
        rows, k = distance.shape
        self._dist[:rows, :k] = distance
        self._sigma[:rows, :k] = sigma
        self._delta[:rows, :k] = delta
        self._bytes_written += rows * self._record_bytes
        return self

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
    def row_capacity(self) -> int:
        """Number of allocated source rows."""
        return self._row_capacity

    # ------------------------------------------------------------------ #
    # BDStore interface
    # ------------------------------------------------------------------ #
    def put(self, data: SourceData) -> None:
        self._ensure_open()
        # Validate before touching any state: a rejected record must not
        # register vertices, bump the generation or move the file.
        check_ranges(data)
        self._mark_dirty()
        row = self._source_row(data.source)
        self._dist[row], self._sigma[row], self._delta[row] = encode_record_arrays(
            data, self._index, self._capacity
        )
        self._bytes_written += self._record_bytes

    def get(self, source: Vertex) -> SourceData:
        distance, sigma, delta = self.record_columns(source)
        return decode_record_arrays(distance, sigma, delta, source, self._index)

    def endpoint_distances(
        self, source: Vertex, u: Vertex, v: Vertex
    ) -> Tuple[Optional[int], Optional[int]]:
        """Read only the two distance entries needed for the ``dd == 0`` skip."""
        self._ensure_open()
        distances = self._dist[self._row(source)]
        result: List[Optional[int]] = []
        for vertex in (u, v):
            if vertex not in self._index:
                result.append(None)
                continue
            self._bytes_read += DISTANCE_DTYPE.itemsize
            value = int(distances[self._index.slot(vertex)])
            result.append(None if value == UNREACHABLE else value)
        return result[0], result[1]

    def add_source(self, source: Vertex) -> None:
        self._ensure_open()
        if source in self._row_of:
            return
        self._mark_dirty()
        row = self._source_row(source)
        slot = self._index.slot(source)
        self._dist[row, slot] = 0
        self._sigma[row, slot] = 1
        self._delta[row, slot] = 0.0
        self._bytes_written += (
            DISTANCE_DTYPE.itemsize + SIGMA_DTYPE.itemsize + DELTA_DTYPE.itemsize
        )

    def register_vertex(self, vertex: Vertex) -> None:
        """Allocate a column slot for ``vertex`` without making it a source."""
        self._ensure_open()
        if vertex in self._index:
            return
        self._mark_dirty()
        self._add_vertex(vertex)

    def forget_since(self, vertex_count: int, source_count: int) -> None:
        """Drop every vertex slot and source added after the given counts.

        The undo of a failed batch's births: their rows and column slots
        go back to empty records, and the index and row map to their
        pre-batch contents.
        """
        self._ensure_open()
        born = self._source_list[source_count:]
        if not born and len(self._index) <= vertex_count:
            return
        self._mark_dirty()
        rows = [self._row_of.pop(source) for source in born]
        columns = slice(vertex_count, len(self._index))
        for matrix, empty in (
            (self._dist, UNREACHABLE), (self._sigma, 0), (self._delta, 0.0)
        ):
            matrix[rows] = empty
            matrix[: self._row_count, columns] = empty
        self._row_of_slot[self._row_slots(born)] = -1
        del self._source_list[source_count:]
        self._row_count = max(self._row_of.values(), default=-1) + 1
        self._index.truncate(vertex_count)
        self._sync_metadata()

    def sources(self) -> Iterator[Vertex]:
        self._ensure_open()
        return iter(list(self._source_list))

    def __len__(self) -> int:
        return len(self._source_list)

    def __contains__(self, source: Vertex) -> bool:
        return source in self._row_of

    def close(self) -> None:
        """Release the matrices; the source list stays countable."""
        self._closed = True
        self._dist = self._sigma = self._delta = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # Column protocol (array kernel)
    # ------------------------------------------------------------------ #
    def record_columns(
        self, source: Vertex
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(distance, sigma, delta)`` row views of one record.

        The views alias the store: treat them as read-only — writing
        through them would bypass :meth:`put` and its range checks.  An
        in-place repair opens its rows with :meth:`sweep_rows` and writes
        the :meth:`column_matrices`.
        """
        self._ensure_open()
        row = self._row(source)
        self._bytes_read += self._record_bytes
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
        self._mark_dirty()
        row = self._source_row(source)
        k = len(distance)
        self._dist[row, :k] = distance
        self._sigma[row, :k] = sigma
        self._delta[row, :k] = delta
        self._bytes_written += self._record_bytes

    def source_slots(self) -> np.ndarray:
        """Vertex slots of every source, in :meth:`sources` order."""
        self._ensure_open()
        slots = np.flatnonzero(self._row_of_slot >= 0)
        slot_of_row = np.empty(self._row_count, dtype=np.int64)
        slot_of_row[self._row_of_slot[slots]] = slots
        # The row map is filled and emptied in source order.
        rows = np.fromiter(self._row_of.values(), np.int64, len(self._row_of))
        return slot_of_row[rows]

    def sweep_rows(self, source_slots: Sequence[int]) -> np.ndarray:
        """Open the records of the sources at ``source_slots`` for an
        in-place repair.

        Returns their rows (in ``source_slots`` order) of the
        :meth:`column_matrices`, which the caller then writes directly;
        each record counts as read and as written.
        """
        self._ensure_open()
        rows = self._source_rows(source_slots)
        if rows.size:
            self._mark_dirty()
        self._bytes_read += rows.size * self._record_bytes
        self._bytes_written += rows.size * self._record_bytes
        return rows

    def column_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(distance, sigma, delta)`` matrices, rows = sources.

        The arrays are C-contiguous, alias the store (capacity-padded
        columns included) and are *replaced* on growth — callers must
        re-fetch after any :meth:`add_source` or :meth:`register_vertex`
        that may grow them.  The kernel's cohort sweep repairs records in
        place through them.
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
        rows = self._source_rows(source_slots)
        cols = np.asarray(vertex_slots, dtype=np.int64)
        self._bytes_read += rows.size * cols.size * DISTANCE_DTYPE.itemsize
        return self._dist[rows[:, None], cols[None, :]]

    # ------------------------------------------------------------------ #
    # Rows, slots and growth
    # ------------------------------------------------------------------ #
    def _source_rows(self, source_slots: Sequence[int]) -> np.ndarray:
        """Rows of the sources at ``source_slots`` (``KeyError`` for a slot
        whose vertex is not a source)."""
        slots = np.asarray(source_slots, dtype=np.int64)
        rows = self._row_of_slot[slots]
        if rows.size and int(rows.min()) < 0:
            missing = int(slots[int(np.argmin(rows))])
            raise KeyError(self._index.vertex(missing))
        return rows

    def _row(self, source: Vertex) -> int:
        try:
            return self._row_of[source]
        except KeyError:
            raise KeyError(source) from None

    def _source_row(self, source: Vertex) -> int:
        """The row of ``source``, registering it (and its slot) if new."""
        row = self._row_of.get(source)
        if row is None:
            if source not in self._index:
                self._add_vertex(source)
            row = self._new_row(source)
            self._sync_metadata()
        return row

    def _new_row(self, source: Vertex) -> int:
        row = self._row_count
        if row >= self._row_capacity:
            self._resize(
                max(int(self._row_capacity * GROWTH_FACTOR) + 1, row + 1),
                self._capacity,
            )
        self._row_count = row + 1
        self._row_of[source] = row
        self._row_of_slot[self._index.slot(source)] = row
        self._source_list.append(source)
        return row

    def _add_vertex(self, vertex: Vertex) -> None:
        self._index.add(vertex)
        if len(self._index) > self._capacity:
            self._resize(
                self._row_capacity,
                max(int(self._capacity * GROWTH_FACTOR) + 1, len(self._index)),
            )
        else:
            self._sync_metadata()

    def _resize(self, rows: int, columns: int) -> None:
        """Reallocate the matrices as ``rows x columns``, keeping every record."""
        used, old_columns = self._row_count, self._capacity
        old = (self._dist, self._sigma, self._delta)
        self._allocate(rows, columns)
        self._dist[:used, :old_columns] = old[0][:used]
        self._sigma[:used, :old_columns] = old[1][:used]
        self._delta[:used, :old_columns] = old[2][:used]
        del old
        if columns > old_columns:
            grown = np.full(columns, -1, dtype=np.int64)
            grown[:old_columns] = self._row_of_slot
            self._row_of_slot = grown
        self._bytes_read += used * self._record_bytes
        self._row_capacity, self._capacity = rows, columns
        self._record_bytes = record_size(columns)
        self._resized()

    # ------------------------------------------------------------------ #
    # Durability hooks (no-ops in RAM)
    # ------------------------------------------------------------------ #
    def _mark_dirty(self) -> None:
        """Called before any record or index mutation."""

    def _sync_metadata(self) -> None:
        """Called after the vertex index or the row map changed."""

    def _resized(self) -> None:
        """Called once :meth:`_resize` copied every record over."""

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"the {type(self).__name__} has been closed")
