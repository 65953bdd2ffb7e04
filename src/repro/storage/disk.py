"""Durable out-of-core betweenness-data store (the paper's "DO" configuration).

:class:`DiskBDStore` is the column store of
:class:`~repro.storage.arrays.ArrayBDStore` — one row per owned source, one
column per vertex slot, in three matrices of distances, shortest-path
counts and dependencies (Section 5.1) — with its three matrices mapped from
one binary file instead of held in RAM.  The file holds a versioned
header, the three matrices as contiguous planes and a metadata block
persisting the vertex index, the owned sources with their rows, and a
generation counter (see :mod:`repro.storage.header` for the exact
layout).  A source's record is therefore three row segments, one per
plane, not one contiguous region.  Everything about records — reads,
in-place repairs, peeks, the row map and the growth policy — is the
column store's; this module adds only what a file needs:

* **creation and reopening**: a new store formats its file (a temporary
  one, deleted on :meth:`close`, when no path is given); a named path that
  already holds data is refused with
  :class:`~repro.exceptions.StoreExistsError`, and :meth:`DiskBDStore.open`
  reopens it instead — no truncation, no re-running Brandes — which is
  what the framework's checkpoint/resume path builds on;
* **the mapping**: header + planes are mapped once and exposed as three
  C-contiguous ``(row_capacity, capacity)`` numpy views — the same shape
  and flat pair ids ``row * capacity + slot`` as the RAM store's — so the
  cohort sweep repairs records in place on the file;
* **metadata and generation**: every index or row-map change rewrites the
  CRC-guarded metadata block after the planes (never moving a record),
  and the first mutation of a session bumps the persisted generation, so
  a checkpoint can tell that the store changed after it;
* **durability**: :meth:`flush` msyncs the mapping and fsyncs the file;
* **growth**: when rows or columns run out, the column store's policy
  picks the new shape and this class writes it to a sibling file, fsyncs
  it and atomically replaces the old file (``os.replace``).

Opening never writes.  A file of an earlier format version is refused
with :class:`~repro.exceptions.StoreVersionError`, whose message names
``repro migrate <path>`` (:mod:`repro.storage.migrate` converts it once).

Standard mmap semantics apply: the mapping assumes no other process
resizes the file while the store is open — an externally *truncated* file
can fault the process on access (reopening it detects the truncation
cleanly with :class:`~repro.exceptions.StoreCorruptedError`).
"""

from __future__ import annotations

import mmap
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.exceptions import StoreExistsError
from repro.storage.arrays import ArrayBDStore
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    record_size,
)
from repro.storage.header import (
    FLAG_DIRECTED,
    HEADER_SIZE,
    encode_metadata,
    metadata_crc,
    pack_header,
    plane_offsets,
    read_layout,
)
from repro.storage.index import VertexIndex
from repro.types import UNREACHABLE, Vertex

PathLike = Union[str, Path]


class DiskBDStore(ArrayBDStore):
    """Columnar on-disk store for ``BD[.]`` records.

    Parameters
    ----------
    vertices:
        Initial vertex set; every vertex receives a column slot.
    path:
        File to use.  When omitted a temporary file is created and deleted on
        :meth:`close`.  A named path that already holds data is refused
        (:class:`~repro.exceptions.StoreExistsError`) — reopen it with
        :meth:`open` instead.
    capacity:
        Number of vertex slots to pre-allocate (default: the vertex count
        with headroom).
    sources:
        Vertices that are sources of this store, rows in slot order.
        Defaults to all of ``vertices``; a parallel worker restricted to a
        partition passes its partition here, so the file holds only the
        partition's rows while every graph vertex still has a column slot.
    directed:
        Orientation of the graph the records will describe.  Persisted as a
        header flag bit; :meth:`open` restores it and the framework refuses
        to pair the store with a graph of the other orientation (the record
        layout is identical either way, but the records' *meaning* is not).
    row_capacity:
        Source rows to pre-allocate, as for
        :class:`~repro.storage.arrays.ArrayBDStore`.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        path: Optional[PathLike] = None,
        capacity: Optional[int] = None,
        sources: Optional[Iterable[Vertex]] = None,
        directed: bool = False,
        row_capacity: Optional[int] = None,
    ) -> None:
        if path is not None:
            path = Path(path)
            if path.exists() and path.stat().st_size > 0:
                raise StoreExistsError(
                    f"{path} already holds data; refusing to truncate it — "
                    "use DiskBDStore.open(path) to reopen the existing store"
                )
        # No path: a temporary file, created by the first allocation (after
        # the arguments were validated), owned and unlinked on close.
        self._path = path
        self._owns_file = path is None
        self._file = None
        self._mm: Optional[mmap.mmap] = None
        self._retired = None
        self._generation = 0
        self._dirty = False
        super().__init__(
            vertices,
            capacity=capacity,
            sources=sources,
            row_capacity=row_capacity,
            directed=directed,
        )
        self._sync_metadata()

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: PathLike) -> "DiskBDStore":
        """Reopen an existing store file, validating its header and metadata.

        The capacities, vertex index (slot order) and source rows are
        restored from the file; records are served in place without any
        rewriting.  Raises :class:`~repro.exceptions.StoreCorruptedError`
        (or :class:`~repro.exceptions.StoreVersionError`) when the file is
        not a store, is truncated, fails its checksum, or was written in
        another format version.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no store file at {path}")
        file = open(path, "r+b")
        try:
            layout = read_layout(file, os.fstat(file.fileno()).st_size, record_size)
        except BaseException:
            file.close()
            raise
        self = cls.__new__(cls)
        self._path = path
        self._owns_file = False
        self._file = file
        self._retired = None
        self._generation = layout.generation
        self._dirty = False
        self._attach(
            VertexIndex(layout.vertices),
            layout.capacity,
            layout.row_capacity,
            layout.directed,
        )
        self._attach_rows(layout.sources, layout.rows)
        self._map(layout.row_capacity, layout.capacity)
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

    # ------------------------------------------------------------------ #
    # Properties and statistics
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Location of the backing file."""
        return self._path

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
        """Total record bytes read since creation (I/O accounting)."""
        return self._bytes_read

    @property
    def bytes_written(self) -> int:
        """Total bytes written since creation."""
        return self._bytes_written

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
        super().close()  # drops the views, so the mapping can be closed
        self._mm.flush()
        self._release()
        if self._owns_file and self._path.exists():
            self._path.unlink()

    def _release(self) -> None:
        """Close the mapping(s) and file(s) this store holds open."""
        self._dist = self._sigma = self._delta = None  # type: ignore[assignment]
        if self._retired is not None:
            for handle in self._retired:
                handle.close()
            self._retired = None
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._file is not None:
            self._file.close()

    # ------------------------------------------------------------------ #
    # The file behind the column store
    # ------------------------------------------------------------------ #
    def _allocate(self, rows: int, columns: int) -> None:
        """Format and map a file of ``rows`` empty records of ``columns``
        slots: the store's own file at creation, a sibling on growth (which
        :meth:`_resized` commits)."""
        if self._mm is None:
            if self._path is None:
                handle, name = tempfile.mkstemp(prefix="repro-bd-", suffix=".bin")
                os.close(handle)
                self._path = Path(name)
            target = self._path
        else:
            self._retired = (self._mm, self._file)
            target = self._path.with_name(f"{self._path.name}.grow")
        self._file = open(target, "w+b")
        self._file.truncate(HEADER_SIZE + rows * record_size(columns))
        self._map(rows, columns)
        # sigma and delta are already zero; an empty record's distances
        # are all "unreachable".
        self._dist.fill(UNREACHABLE)
        self._bytes_written += rows * record_size(columns)

    def _map(self, rows: int, columns: int) -> None:
        """Map header + planes and expose the three column matrices."""
        # Map only header + planes: their length is fixed per shape, so
        # metadata rewrites after them never invalidate the mapping.
        self._mm = mmap.mmap(
            self._file.fileno(), HEADER_SIZE + rows * record_size(columns)
        )
        self._dist, self._sigma, self._delta = (
            np.ndarray((rows, columns), dtype, buffer=self._mm, offset=offset)
            for offset, dtype in zip(
                plane_offsets(rows, columns),
                (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE),
            )
        )

    def _resized(self) -> None:
        """Commit a grown layout: the synced sibling replaces the store file."""
        self._sync_metadata()
        self._mm.flush()
        os.fsync(self._file.fileno())
        os.replace(self._file.name, self._path)
        retired_map, retired_file = self._retired
        self._retired = None
        retired_map.close()
        retired_file.close()

    def _sync_metadata(self) -> None:
        """Persist the vertex index, the source rows and the generation.

        The metadata block lives *after* the fixed record area, so rewriting
        it never moves a record; the header is then updated with the new
        size and checksum.  Called eagerly on every index/row change so a
        process that dies without :meth:`close` still leaves a reopenable
        file.
        """
        meta = encode_metadata(
            self._index.vertices(),
            self._source_list,
            self._generation,
            rows=[self._row_of[source] for source in self._source_list],
        )
        self._file.seek(HEADER_SIZE + self._row_capacity * self._record_bytes)
        self._file.truncate()
        self._file.write(meta)
        self._file.seek(0)
        self._file.write(
            pack_header(
                self._capacity,
                len(meta),
                metadata_crc(meta),
                FLAG_DIRECTED if self.directed else 0,
                self._row_capacity,
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

