"""Column blocks: the one format in which ``BD[.]`` records cross a checkpoint.

A :class:`ColumnBlock` is a store's records as three raw matrices —
distance, sigma and delta, one row per source and one column per vertex,
trimmed to ``[sources, vertices]`` — plus the two orders that give the
matrices meaning: the vertex (slot) order of the columns and the source
(row) order of the rows.  Every RAM-backed sidecar embeds one — a serial
session's and each shard round's alike — and a seeded shard worker reads
one out of a store file, so no checkpoint path converts records into
per-source label dicts.

:func:`export_columns` and :func:`import_columns` are the only way in and
out.  Column stores (:class:`~repro.storage.arrays.ArrayBDStore`,
:class:`~repro.storage.disk.DiskBDStore`) export with one gather over
:meth:`column_matrices` rows found through ``row_of_source_slot``; a
resumed ``arrays`` store keeps the exported slot and row order exactly.
The dict-of-records store encodes and decodes through the record codec
(:func:`~repro.storage.codec.encode_record_arrays` /
:func:`~repro.storage.codec.decode_record_arrays`), so a block looks the
same whichever backend wrote it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.exceptions import StoreCorruptedError
from repro.storage.arrays import ArrayBDStore
from repro.storage.base import BDStore
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    decode_record_arrays,
    encode_record_arrays,
)
from repro.storage.index import VertexIndex
from repro.storage.memory import InMemoryBDStore
from repro.types import Vertex

_DTYPES = (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE)
_NAMES = ("distance", "sigma", "delta")


@dataclass
class ColumnBlock:
    """The records of one store as ``[len(sources), len(vertices)]`` matrices.

    Row ``i`` is the record of ``sources[i]``; column ``j`` describes
    ``vertices[j]``.  The matrices are independent of the store they were
    exported from.
    """

    vertices: List[Vertex]
    sources: List[Vertex]
    distance: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray

    def to_payload(self) -> dict:
        """Picklable form: the two orders and each matrix's raw bytes.

        The matrices are handed over as read-only ``pickle.PickleBuffer``
        views, not copied: pickled with protocol 5 they are written from
        the block's own memory and load back as ``bytes``, the form
        :meth:`from_payload` (and every earlier sidecar) reads.
        """
        payload = {"vertices": list(self.vertices), "sources": list(self.sources)}
        for name, dtype in zip(_NAMES, _DTYPES):
            matrix = np.ascontiguousarray(getattr(self, name), dtype)
            payload[name] = pickle.PickleBuffer(memoryview(matrix).toreadonly())
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnBlock":
        """Inverse of :meth:`to_payload`; refuses a block whose parts disagree."""
        vertices = list(payload["vertices"])
        sources = list(payload["sources"])
        shape = (len(sources), len(vertices))
        matrices = []
        for name, dtype in zip(_NAMES, _DTYPES):
            raw = payload[name]
            if len(raw) != shape[0] * shape[1] * dtype.itemsize:
                raise StoreCorruptedError(
                    f"column block {name} holds {len(raw)} bytes, not the "
                    f"{shape[0]} x {shape[1]} {dtype} matrix its orders describe"
                )
            matrices.append(np.frombuffer(raw, dtype=dtype).reshape(shape))
        unique = set(vertices)
        if (
            len(unique) != len(vertices)
            or len(set(sources)) != len(sources)
            or not unique.issuperset(sources)
        ):
            raise StoreCorruptedError(
                "column block orders are inconsistent: duplicate vertices or "
                "sources, or sources outside the vertex order"
            )
        return cls(vertices, sources, *matrices)

    @classmethod
    def from_records(
        cls, vertices: Sequence[Vertex], records: Iterable[SourceData]
    ) -> "ColumnBlock":
        """Encode dict records (range-checked) against ``vertices``' order."""
        index = VertexIndex(vertices)
        n = len(index)
        records = list(records)
        matrices = [np.empty((len(records), n), dtype) for dtype in _DTYPES]
        for row, data in enumerate(records):
            for matrix, column in zip(
                matrices, encode_record_arrays(data, index, n)
            ):
                matrix[row] = column
        return cls(index.vertices(), [data.source for data in records], *matrices)


def export_columns(
    store: BDStore,
    vertices: Sequence[Vertex] = (),
    sources: Optional[Sequence[Vertex]] = None,
) -> ColumnBlock:
    """Copy ``store``'s records out as a :class:`ColumnBlock`.

    ``sources`` fixes the row order (default: the store's own).  A column
    store contributes its own vertex order; ``vertices`` is the column order
    for stores without one (the dict store), and must cover every vertex
    its records reach.
    """
    order = list(store.sources()) if sources is None else list(sources)
    if not hasattr(store, "column_matrices"):
        return ColumnBlock.from_records(vertices, (store.get(s) for s in order))
    index = store.vertex_index
    n = len(index)
    rows = np.fromiter(
        (store.row_of_source_slot(index.slot(s)) for s in order),
        dtype=np.int64,
        count=len(order),
    )
    distance, sigma, delta = (
        matrix[rows, :n] for matrix in store.column_matrices()
    )
    return ColumnBlock(index.vertices(), order, distance, sigma, delta)


def import_columns(
    block: ColumnBlock, backend: str, directed: Optional[bool] = None
) -> BDStore:
    """Build the in-RAM store ``backend`` runs on from ``block``.

    ``arrays`` gets an :class:`~repro.storage.arrays.ArrayBDStore` with the
    block's slot and row order; ``dicts`` an
    :class:`~repro.storage.memory.InMemoryBDStore` of decoded records in
    the block's row order.
    """
    if backend == "arrays":
        return ArrayBDStore.from_columns(
            block.vertices,
            block.sources,
            block.distance,
            block.sigma,
            block.delta,
            directed=directed,
        )
    index = VertexIndex(block.vertices)
    return InMemoryBDStore(
        decode_record_arrays(
            block.distance[row], block.sigma[row], block.delta[row], source, index
        )
        for row, source in enumerate(block.sources)
    )
