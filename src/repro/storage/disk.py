"""Durable out-of-core betweenness-data store (the paper's "DO" configuration).

The store keeps one binary file containing a versioned header, ``capacity``
fixed-size records (one per source slot, each laid out columnarly:
distances, then shortest-path counts, then dependencies — Section 5.1) and
a metadata block persisting the vertex index and the source set (see
:mod:`repro.storage.header` for the exact layout).  Records are:

* read sequentially, source by source, during an update sweep;
* peeked at cheaply: the ``dd == 0`` skip needs only the two distances of
  the updated endpoints, which are read directly at their column offsets
  without touching the sigma/delta columns;
* written back *in place*, so processing an update stream never rewrites the
  whole file.

Because the header records everything needed to interpret the record area,
a store written by one process can be closed and later **reopened** with
:meth:`DiskBDStore.open` — no truncation, no re-running Brandes — which is
what the framework's checkpoint/resume path builds on.  Constructing a new
store on a path that already holds data refuses with
:class:`~repro.exceptions.StoreExistsError` instead of clobbering it.

Record access is memory-mapped, always: the header + record area is mapped
once and exposed as three strided ``(capacity, capacity)`` numpy column
views, so a record load is a zero-copy slice and the cohort sweep repairs
records in place through the same matrices the in-RAM
:class:`~repro.storage.arrays.ArrayBDStore` serves.  Standard mmap
semantics apply: the mapping assumes no other process resizes the file
while the store is open — an externally *truncated* file can fault the
process on access (reopening it detects the truncation cleanly with
:class:`~repro.exceptions.StoreCorruptedError`).

The file is pre-allocated with room for ``capacity`` vertices (and as many
source slots); when the evolving graph outgrows it, the store rebuilds the
file with a larger capacity by *streaming* records into a sibling file —
one record in memory at a time — and atomically replacing the old file.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.exceptions import (
    StoreClosedError,
    StoreCorruptedError,
    StoreExistsError,
)
from repro.storage.base import BDStore
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    check_ranges,
    column_offsets,
    decode_record_arrays,
    empty_record,
    encode_record_arrays,
    record_size,
)
from repro.storage.header import (
    FLAG_DIRECTED,
    HEADER_SIZE,
    encode_metadata,
    metadata_crc,
    pack_header,
    read_layout,
)
from repro.storage.index import VertexIndex
from repro.types import UNREACHABLE, Vertex

PathLike = Union[str, Path]

#: Default headroom left for future vertices when sizing the file.
DEFAULT_GROWTH_FACTOR = 1.25


class DiskBDStore(BDStore):
    """Columnar on-disk store for ``BD[.]`` records.

    Parameters
    ----------
    vertices:
        Initial vertex set; every vertex receives both a column slot and a
        source record.
    path:
        File to use.  When omitted a temporary file is created and deleted on
        :meth:`close`.  A named path that already holds data is refused
        (:class:`~repro.exceptions.StoreExistsError`) — reopen it with
        :meth:`open` instead.
    capacity:
        Number of vertex slots to pre-allocate.  Defaults to the initial
        vertex count padded by ``DEFAULT_GROWTH_FACTOR`` so that a modest
        number of new vertices can arrive without rebuilding the file.
    sources:
        Vertices that are sources of this store.  Defaults to all of
        ``vertices``; a parallel worker restricted to a partition passes its
        partition here while still giving every graph vertex a column slot.
    directed:
        Orientation of the graph the records will describe.  Persisted as a
        header flag bit; :meth:`open` restores it and the framework refuses
        to pair the store with a graph of the other orientation (the record
        layout is identical either way, but the records' *meaning* is not).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        path: Optional[PathLike] = None,
        capacity: Optional[int] = None,
        sources: Optional[Iterable[Vertex]] = None,
        directed: bool = False,
    ) -> None:
        index = VertexIndex(vertices)
        # Every vertex gets a column slot; only sources get a meaningful
        # record.  Vertices registered later (e.g. owned by another worker's
        # partition) get a column slot only.
        if sources is None:
            source_set = set(index.vertices())
        else:
            source_set = set(sources)
            unknown = source_set - set(index.vertices())
            if unknown:
                raise StoreCorruptedError(
                    f"sources {sorted(map(repr, unknown))} are not among the "
                    "store's vertices"
                )
        initial = len(index)
        if capacity is None:
            capacity = max(initial, int(initial * DEFAULT_GROWTH_FACTOR), 16)
        if capacity < initial:
            raise StoreCorruptedError(
                f"capacity {capacity} is smaller than the vertex count {initial}"
            )

        if path is None:
            handle, tmp_path = tempfile.mkstemp(prefix="repro-bd-", suffix=".bin")
            os.close(handle)
            path = Path(tmp_path)
            owns_file = True
        else:
            path = Path(path)
            owns_file = False
            if path.exists() and path.stat().st_size > 0:
                raise StoreExistsError(
                    f"{path} already holds data; refusing to truncate it — "
                    "use DiskBDStore.open(path) to reopen the existing store"
                )

        self._attach(
            path=path,
            file=open(path, "w+b"),
            capacity=capacity,
            index=index,
            source_set=source_set,
            owns_file=owns_file,
            directed=directed,
        )
        self._format_file()
        self._setup_maps()

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: PathLike) -> "DiskBDStore":
        """Reopen an existing store file, validating its header and metadata.

        The capacity, vertex index (slot order) and source set are restored
        from the file's metadata block; records are served in place without
        any rewriting.  Raises :class:`~repro.exceptions.StoreCorruptedError`
        (or :class:`~repro.exceptions.StoreVersionError`) when the file is
        not a store, is truncated, fails its checksum, or was written by an
        unsupported format version.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no store file at {path}")
        file = open(path, "r+b")
        try:
            layout = read_layout(
                file, os.fstat(file.fileno()).st_size, record_size
            )
        except Exception:
            file.close()
            raise
        self = cls.__new__(cls)
        self._attach(
            path=path,
            file=file,
            capacity=layout.capacity,
            index=VertexIndex(layout.vertices),
            source_set=set(layout.sources),
            owns_file=False,
            directed=layout.directed,
        )
        self._generation = layout.generation
        self._setup_maps()
        return self

    @classmethod
    def from_columns(
        cls,
        path: PathLike,
        vertices: Sequence[Vertex],
        sources: Sequence[Vertex],
        distance: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
        directed: bool = False,
    ) -> "DiskBDStore":
        """Create a store file at ``path`` holding exactly these records.

        Row ``i`` of the ``[len(sources), k]`` matrices is written, in one
        bulk column write each, to the record of ``sources[i]``.  The file
        is sized to ``vertices`` with no growth headroom; a ``store="disk"``
        shard worker seeded from a store file starts on one (``path=None``:
        a temporary file), and grows it as stream-born vertices arrive.
        """
        self = cls(
            vertices,
            path=path,
            capacity=len(vertices),
            sources=sources,
            directed=directed,
        )
        self._mark_dirty()
        slots = np.fromiter(
            (self._index.slot(source) for source in sources),
            dtype=np.int64,
            count=len(sources),
        )
        k = distance.shape[1]
        self._dist_view[slots, :k] = distance
        self._sigma_view[slots, :k] = sigma
        self._delta_view[slots, :k] = delta
        self._bytes_written += len(slots) * self._record_bytes
        return self

    @classmethod
    def open_or_create(
        cls,
        vertices: Iterable[Vertex],
        path: PathLike,
        capacity: Optional[int] = None,
        sources: Optional[Iterable[Vertex]] = None,
    ) -> "DiskBDStore":
        """Reopen ``path`` when it holds a store, create a fresh one otherwise."""
        path = Path(path)
        if path.exists() and path.stat().st_size > 0:
            return cls.open(path)
        return cls(vertices, path=path, capacity=capacity, sources=sources)

    def _attach(
        self,
        path: Path,
        file,
        capacity: int,
        index: VertexIndex,
        source_set: Set[Vertex],
        owns_file: bool,
        directed: bool = False,
    ) -> None:
        """Initialise instance state shared by ``__init__`` and ``open``."""
        self._path = path
        self._file = file
        self._capacity = capacity
        self._index = index
        self._source_set = source_set
        self._owns_file = owns_file
        self._directed = directed
        self._closed = False
        self._bytes_read = 0
        self._bytes_written = 0
        self._mm: Optional[mmap.mmap] = None
        self._generation = 0
        self._dirty = False
        self._record_bytes = record_size(capacity)
        self._data_end = HEADER_SIZE + capacity * self._record_bytes

    # ------------------------------------------------------------------ #
    # Properties and statistics
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Location of the backing file."""
        return self._path

    @property
    def vertex_index(self) -> VertexIndex:
        """The store's vertex/slot assignment (shared with the array kernel)."""
        return self._index

    @property
    def capacity(self) -> int:
        """Number of vertex slots currently allocated per record."""
        return self._capacity

    @property
    def directed(self) -> bool:
        """Orientation recorded in the store header (and enforced on resume)."""
        return self._directed

    @property
    def persistent(self) -> bool:
        """Whether the backing file outlives :meth:`close`.

        True for caller-named paths (and anything reopened via
        :meth:`open`); False for the self-owned temporary file, which is
        unlinked on close.
        """
        return not self._owns_file

    @property
    def generation(self) -> int:
        """Persisted modification counter.

        Bumped (and synced to the metadata block) on the first record
        mutation after creation, :meth:`open` or :meth:`flush`, so a
        checkpoint taken at generation ``g`` can detect that the store was
        modified afterwards.
        """
        return self._generation

    @property
    def bytes_read(self) -> int:
        """Total bytes read since creation (I/O accounting for experiments)."""
        return self._bytes_read

    @property
    def bytes_written(self) -> int:
        """Total bytes written since creation."""
        return self._bytes_written

    # ------------------------------------------------------------------ #
    # Record access
    # ------------------------------------------------------------------ #
    def put(self, data: SourceData) -> None:
        self._ensure_open()
        # Validate before touching any state: a rejected record must not
        # register vertices, bump the generation or move the file.
        check_ranges(data)
        self._mark_dirty()
        if data.source not in self._index:
            self._register_vertex(data.source)
        if data.source not in self._source_set:
            self._source_set.add(data.source)
            self._sync_metadata()
        distance, sigma, delta = encode_record_arrays(
            data, self._index, self._capacity
        )
        slot = self._index.slot(data.source)
        self._dist_view[slot] = distance
        self._sigma_view[slot] = sigma
        self._delta_view[slot] = delta
        self._bytes_written += self._record_bytes

    def get(self, source: Vertex) -> SourceData:
        self._ensure_open()
        distance, sigma, delta = self.record_columns(source)
        return decode_record_arrays(distance, sigma, delta, source, self._index)

    def record_columns(
        self, source: Vertex, writable: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Load the raw ``(distance, sigma, delta)`` columns of one record.

        This is the low-level record load underneath :meth:`get`: zero-copy
        views into the mapped record area, without the
        dictionary-materialisation cost of full decoding.

        The views alias the store file.  With ``writable=False`` (default)
        treat them as read-only — writing through them would bypass
        :meth:`put` and its range checks.  ``writable=True`` is the array
        kernel's update-sweep path: it marks the store dirty and the caller
        repairs the record in place (finishing with :meth:`record_written`).
        """
        self._ensure_open()
        slot = self._index.slot(source)
        self._bytes_read += self._record_bytes
        if writable:
            self._mark_dirty()
        return self._read_slot_columns(slot)

    def put_columns(
        self,
        source: Vertex,
        distance: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
    ) -> None:
        """Bulk-write one record's columns (shorter-than-capacity allowed).

        The kernel-side counterpart of :meth:`put`: the record arrives as
        ready-made column arrays (already slot-indexed and dtype-correct),
        so no dictionary encoding happens.  Column entries beyond
        ``len(distance)`` keep their current bytes, which are the
        "unreachable" defaults for slots registered after the record was
        computed.
        """
        self._ensure_open()
        self._mark_dirty()
        if source not in self._index:
            self._register_vertex(source)
        if source not in self._source_set:
            self._source_set.add(source)
            self._sync_metadata()
        slot = self._index.slot(source)
        k = len(distance)
        self._dist_view[slot, :k] = distance
        self._sigma_view[slot, :k] = sigma
        self._delta_view[slot, :k] = delta
        self._bytes_written += self._record_bytes

    def record_written(self, source: Vertex) -> None:
        """Account for an in-place (mmap view) record repair."""
        self._ensure_open()
        self._bytes_written += self._record_bytes

    def column_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(distance, sigma, delta)`` matrices, rows = vertex slots.

        The mapped record area already *is* a strided ``(capacity,
        capacity)`` matrix per column, so the kernel's cohort repair can
        gather whole slabs of records with fancy row indexing and write
        the repaired pairs back with fancy pair indexing — the same bulk
        protocol
        :meth:`repro.storage.arrays.ArrayBDStore.column_matrices` serves
        in RAM.  The views are replaced whenever the file is rebuilt for
        growth — callers must re-fetch per sweep.
        """
        self._ensure_open()
        return self._dist_view, self._sigma_view, self._delta_view

    def row_of_source_slot(self, slot: int) -> int:
        """Matrix row of the source with vertex slot ``slot``.

        Disk records are laid out one per vertex slot, so the row *is* the
        slot; the lookup still validates that the slot's vertex really is a
        source of this store, mirroring the RAM store's contract.
        """
        self._ensure_open()
        vertex = self._index.vertex(slot)
        if vertex not in self._source_set:
            raise KeyError(vertex)
        return int(slot)

    def peek_distance_block(self, source_slots, vertex_slots) -> np.ndarray:
        """Distances of ``vertex_slots`` from every slot in ``source_slots``.

        One fancy-indexed gather over the mapped distance matrix — the
        vectorized Proposition 3.1 peek of the array kernel.
        """
        self._ensure_open()
        self._bytes_read += (
            len(source_slots) * len(vertex_slots) * DISTANCE_DTYPE.itemsize
        )
        return self._dist_view[np.ix_(source_slots, vertex_slots)]

    def endpoint_distances(
        self, source: Vertex, u: Vertex, v: Vertex
    ) -> Tuple[Optional[int], Optional[int]]:
        """Read only the two distance entries needed for the ``dd == 0`` skip."""
        self._ensure_open()
        source_slot = self._index.slot(source)
        result: List[Optional[int]] = []
        for vertex in (u, v):
            if vertex not in self._index:
                result.append(None)
                continue
            vertex_slot = self._index.slot(vertex)
            self._bytes_read += DISTANCE_DTYPE.itemsize
            value = int(self._dist_view[source_slot, vertex_slot])
            result.append(None if value == UNREACHABLE else value)
        return result[0], result[1]

    def add_source(self, source: Vertex) -> None:
        self._ensure_open()
        if source in self._source_set:
            return
        self._mark_dirty()
        if source not in self._index:
            self._register_vertex(source)
        self._source_set.add(source)
        self._sync_metadata()
        self._write_identity(self._index.slot(source))

    def register_vertex(self, vertex: Vertex) -> None:
        """Allocate a column slot for ``vertex`` without making it a source."""
        self._ensure_open()
        if vertex not in self._index:
            self._mark_dirty()
            self._register_vertex(vertex)

    def snapshot(self):
        """Materialise every record; decoding already yields fresh objects,
        so no defensive copy is needed (unlike the in-memory store)."""
        return {source: self.get(source) for source in self.sources()}

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def sources(self) -> Iterator[Vertex]:
        self._ensure_open()
        return iter(
            [v for v in self._index.vertices() if v in self._source_set]
        )

    def __len__(self) -> int:
        return len(self._source_set)

    def __contains__(self, source: Vertex) -> bool:
        return source in self._source_set

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Make the records and the metadata block durable on disk.

        ``msync`` covers only the mapped record area; the metadata block is
        written past it through the file object, so the closing ``fsync``
        is what forces it out before a checkpoint sidecar names this file.
        """
        self._ensure_open()
        self._mm.flush()
        self._file.flush()
        os.fsync(self._file.fileno())
        self._dirty = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._teardown_maps()
        self._file.flush()
        self._file.close()
        if self._owns_file and self._path.exists():
            self._path.unlink()

    # ------------------------------------------------------------------ #
    # Internals: layout
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"disk store at {self._path} has been closed")

    def _header_flags(self) -> int:
        return FLAG_DIRECTED if self._directed else 0

    def _setup_maps(self) -> None:
        """(Re)create the mmap and the three strided column views."""
        self._record_bytes = record_size(self._capacity)
        self._data_end = HEADER_SIZE + self._capacity * self._record_bytes
        self._file.flush()
        # Map only header + record area: its length is fixed per capacity,
        # so metadata rewrites after it never invalidate the mapping.
        self._mm = mmap.mmap(self._file.fileno(), self._data_end)
        capacity = self._capacity
        self._dist_view, self._sigma_view, self._delta_view = (
            np.ndarray(
                (capacity, capacity),
                dtype,
                buffer=self._mm,
                offset=HEADER_SIZE + offset,
                strides=(self._record_bytes, dtype.itemsize),
            )
            for offset, dtype in zip(
                column_offsets(capacity),
                (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE),
            )
        )

    def _teardown_maps(self) -> None:
        if self._mm is None:
            return
        self._dist_view = self._sigma_view = self._delta_view = None
        self._mm.flush()
        self._mm.close()
        self._mm = None

    def _format_file(self) -> None:
        """Write a fresh file in one pass: header, records, metadata block.

        Each record is written exactly once — source slots directly as
        self-reaching identity records (d=0, sigma=1, delta=0), everything
        else as empty "reaches nothing" records — so the creation I/O equals
        the resulting file size (the previous formatter wrote every source
        record twice).
        """
        meta = encode_metadata(
            self._index.vertices(), list(self._source_set), self._generation
        )
        self._file.seek(0)
        self._file.truncate()
        self._file.write(
            pack_header(
                self._capacity, len(meta), metadata_crc(meta), self._header_flags()
            )
        )
        empty = empty_record(self._capacity)
        distance_offset, sigma_offset, _ = column_offsets(self._capacity)
        for slot in range(self._capacity):
            vertex = (
                self._index.vertex(slot) if slot < len(self._index) else None
            )
            if vertex is not None and vertex in self._source_set:
                record = bytearray(empty)
                base = distance_offset + slot * DISTANCE_DTYPE.itemsize
                record[base : base + DISTANCE_DTYPE.itemsize] = DISTANCE_DTYPE.type(
                    0
                ).tobytes()
                base = sigma_offset + slot * SIGMA_DTYPE.itemsize
                record[base : base + SIGMA_DTYPE.itemsize] = SIGMA_DTYPE.type(
                    1
                ).tobytes()
                # delta[slot] = 0.0 is already what the empty record holds.
                self._file.write(bytes(record))
            else:
                self._file.write(empty)
        self._file.write(meta)
        self._file.flush()
        self._bytes_written += HEADER_SIZE + self._capacity * len(empty) + len(meta)

    def _sync_metadata(self) -> None:
        """Persist the vertex index and source set after a mutation.

        The metadata block lives *after* the fixed record area, so rewriting
        it never moves a record; the header is then updated with the new
        size and checksum.  Called eagerly on every index/source change so a
        process that dies without :meth:`close` still leaves a reopenable
        file.
        """
        meta = encode_metadata(
            self._index.vertices(), list(self._source_set), self._generation
        )
        self._file.seek(self._data_end)
        self._file.truncate()
        self._file.write(meta)
        self._file.seek(0)
        self._file.write(
            pack_header(
                self._capacity, len(meta), metadata_crc(meta), self._header_flags()
            )
        )
        self._file.flush()
        self._bytes_written += len(meta) + HEADER_SIZE

    def _mark_dirty(self) -> None:
        """Bump the generation on the first mutation of a clean session."""
        if self._dirty:
            return
        self._dirty = True
        self._generation += 1
        self._sync_metadata()

    def _write_identity(self, slot: int) -> None:
        """Make ``slot``'s record a self-reaching source (d=0, sigma=1, delta=0)."""
        self._dist_view[slot, slot] = 0
        self._sigma_view[slot, slot] = 1
        self._delta_view[slot, slot] = 0.0
        self._bytes_written += (
            DISTANCE_DTYPE.itemsize + SIGMA_DTYPE.itemsize + DELTA_DTYPE.itemsize
        )

    # ------------------------------------------------------------------ #
    # Internals: growth
    # ------------------------------------------------------------------ #
    def _register_vertex(self, vertex: Vertex) -> None:
        if len(self._index) >= self._capacity:
            self._grow(vertex)
        else:
            self._index.add(vertex)
            self._sync_metadata()

    def _grow(self, new_vertex: Vertex) -> None:
        """Rebuild the file with a larger capacity to make room for ``new_vertex``.

        Records are *streamed* into a sibling file — one record's columns in
        memory at a time, padded to the new capacity — and the sibling
        atomically replaces the old file, so growth uses O(record) memory
        instead of materialising every decoded record at once.
        """
        old_vertex_count = len(self._index)
        self._index.add(new_vertex)
        new_capacity = max(
            int(self._capacity * DEFAULT_GROWTH_FACTOR) + 1, len(self._index)
        )
        new_record_bytes = record_size(new_capacity)
        pad = new_capacity - self._capacity
        distance_pad = np.full(pad, UNREACHABLE, dtype=DISTANCE_DTYPE).tobytes()
        sigma_pad = np.zeros(pad, dtype=SIGMA_DTYPE).tobytes()
        delta_pad = np.zeros(pad, dtype=DELTA_DTYPE).tobytes()
        meta = encode_metadata(
            self._index.vertices(), list(self._source_set), self._generation
        )
        empty = empty_record(new_capacity)

        sibling = self._path.with_name(self._path.name + ".grow")
        with open(sibling, "w+b") as out:
            out.write(
                pack_header(
                    new_capacity, len(meta), metadata_crc(meta), self._header_flags()
                )
            )
            for slot in range(new_capacity):
                if (
                    slot < old_vertex_count
                    and self._index.vertex(slot) in self._source_set
                ):
                    distance, sigma, delta = self._read_slot_columns(slot)
                    out.write(distance.tobytes())
                    out.write(distance_pad)
                    out.write(sigma.tobytes())
                    out.write(sigma_pad)
                    out.write(delta.tobytes())
                    out.write(delta_pad)
                    self._bytes_read += self._record_bytes
                else:
                    out.write(empty)
            out.write(meta)
            out.flush()
            os.fsync(out.fileno())
        self._bytes_written += (
            HEADER_SIZE + new_capacity * new_record_bytes + len(meta)
        )

        self._teardown_maps()
        self._file.close()
        os.replace(sibling, self._path)
        self._capacity = new_capacity
        self._file = open(self._path, "r+b")
        self._setup_maps()

    def _read_slot_columns(
        self, slot: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw columns of ``slot`` under the *current* layout (no accounting)."""
        return self._dist_view[slot], self._sigma_view[slot], self._delta_view[slot]
