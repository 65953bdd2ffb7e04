"""Descriptor-passing dispatch plane of the worker runtime.

The shard coordinator does not pickle update lists across pipes.  The
driver owns an **append-only update ring** — a shared ``(capacity, 3)``
int64 segment of ``(kind, u_id, v_id)`` rows — and a **label table**
interning vertex labels to dense ids.  Per batch the driver appends the
encoded rows once and broadcasts only ``(start, length)`` plus whatever
labels the batch minted; each worker re-reads its slice straight out of the
segment and rebuilds the exact same :class:`~repro.core.updates.EdgeUpdate`
objects the driver encoded, so scores do not depend on how a batch
travelled (replay after a recovery sends the pickled list instead).

The table is replicated incrementally: driver and workers start from the
same label list and append new labels in the same order (the driver's
first-encounter order within each batch), so ids agree forever without any
synchronisation beyond the batch messages themselves.

When the ring fills it *rotates*: the driver allocates a doubled
next-generation segment and ships its descriptor inside the next batch
message; workers re-attach on receipt.  Old generations are retired but
only unlinked at close — a worker may still hold a mapping — which is
bounded: rotations are O(log total_updates).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.updates import EdgeUpdate, UpdateKind
from repro.storage.buffers import Buffer, ShmAllocator, ShmDescriptor, attach

#: Row encoding of one update in the ring.
KIND_ADDITION = 0
KIND_REMOVAL = 1

#: Initial ring capacity (rows); doubles on rotation.
DEFAULT_RING_CAPACITY = 4096

RING_DTYPE = np.dtype(np.int64)


class LabelTable:
    """Bidirectional label <-> dense-id interning, replicated by append order."""

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable = ()) -> None:
        self._labels: List = list(labels)
        self._ids: Dict = {label: i for i, label in enumerate(self._labels)}

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label) -> bool:
        return label in self._ids

    def labels(self) -> List:
        """The labels in id order (a copy)."""
        return list(self._labels)

    def label(self, label_id: int):
        """The label with dense id ``label_id``."""
        return self._labels[label_id]

    def id_of(self, label) -> int:
        """The dense id of ``label`` (raises ``KeyError`` when unknown)."""
        return self._ids[label]

    def intern(self, label) -> Tuple[int, bool]:
        """Id of ``label``, appending it first when new; ``(id, was_new)``."""
        existing = self._ids.get(label)
        if existing is not None:
            return existing, False
        label_id = len(self._labels)
        self._labels.append(label)
        self._ids[label] = label_id
        return label_id, True

    def extend(self, new_labels: Iterable) -> None:
        """Append labels minted by the driver, in the driver's order.

        Idempotent per label: a replacement worker spawned mid-stream is
        seeded with the driver's *current* table, which already contains
        the in-flight batch's labels — the announcement then matches the
        existing ids by construction and is skipped.
        """
        for label in new_labels:
            if label in self._ids:
                continue
            self._ids[label] = len(self._labels)
            self._labels.append(label)


def encode_batch(
    table: LabelTable, batch: Sequence[EdgeUpdate]
) -> Tuple[np.ndarray, List]:
    """Encode a batch into ring rows, interning labels as needed.

    Returns ``(rows, new_labels)`` where ``new_labels`` lists the labels
    this batch minted in first-encounter order — exactly what the workers
    must append to their replicas before decoding the rows.
    """
    rows = np.empty((len(batch), 3), dtype=RING_DTYPE)
    new_labels: List = []
    for i, update in enumerate(batch):
        u, v = update.endpoints
        u_id, u_new = table.intern(u)
        if u_new:
            new_labels.append(u)
        v_id, v_new = table.intern(v)
        if v_new:
            new_labels.append(v)
        rows[i, 0] = (
            KIND_ADDITION if update.kind is UpdateKind.ADDITION else KIND_REMOVAL
        )
        rows[i, 1] = u_id
        rows[i, 2] = v_id
    return rows, new_labels


def decode_rows(rows: np.ndarray, table: LabelTable) -> List[EdgeUpdate]:
    """Rebuild the driver's exact update objects from ring rows."""
    updates: List[EdgeUpdate] = []
    for kind, u_id, v_id in rows:
        u, v = table.label(int(u_id)), table.label(int(v_id))
        if int(kind) == KIND_ADDITION:
            updates.append(EdgeUpdate.addition(u, v))
        else:
            updates.append(EdgeUpdate.removal(u, v))
    return updates


class UpdateRing:
    """Driver-owned append-only update log in a shared segment."""

    def __init__(
        self, capacity: int = DEFAULT_RING_CAPACITY, hint: str = "ring"
    ) -> None:
        self._allocator = ShmAllocator(hint=hint)
        self._generation = 0
        self._length = 0
        self._buffer = self._allocator.zeros((max(capacity, 16), 3), RING_DTYPE)
        self._retired: List[Buffer] = []

    @property
    def generation(self) -> int:
        """Current segment generation (bumps on rotation)."""
        return self._generation

    @property
    def capacity(self) -> int:
        """Row capacity of the current segment."""
        return int(self._buffer.array.shape[0])

    def payload(self) -> dict:
        """Picklable descriptor of the current segment (for worker attach)."""
        return self._buffer.descriptor(self._generation).to_payload()

    def append(self, rows: np.ndarray) -> Tuple[int, int, Optional[dict]]:
        """Append encoded rows; returns ``(start, length, rotated_payload)``.

        ``rotated_payload`` is ``None`` while the current segment had room;
        after a rotation it is the new segment's descriptor payload, which
        the driver must include in the same batch message so workers
        re-attach before reading the slice.
        """
        needed = int(rows.shape[0])
        if self._length + needed > self.capacity:
            new_capacity = max(self.capacity * 2, needed * 2)
            fresh = self._allocator.zeros((new_capacity, 3), RING_DTYPE)
            self._retired.append(self._buffer)
            self._buffer = fresh
            self._generation += 1
            self._length = 0
            rotated = self.payload()
        else:
            rotated = None
        start = self._length
        if needed:
            self._buffer.array[start : start + needed] = rows
        self._length += needed
        return start, needed, rotated

    def release(self) -> None:
        """Owner teardown: unlink the live segment and every retired one."""
        for buffer in self._retired:
            buffer.release()
        self._retired = []
        self._buffer.release()


class RingReader:
    """Worker-side view of the driver's update ring."""

    def __init__(self, payload: dict) -> None:
        self._buffer: Optional[Buffer] = None
        self._generation = -1
        self.reattach(payload)

    def reattach(self, payload: dict) -> None:
        """Attach (or switch to) the segment described by ``payload``."""
        descriptor = ShmDescriptor.from_payload(payload)
        if descriptor.generation == self._generation:
            return
        if self._buffer is not None:
            self._buffer.release()
        self._buffer = attach(descriptor)
        self._generation = descriptor.generation

    def read(self, start: int, length: int) -> np.ndarray:
        """Copy ``length`` rows at ``start`` out of the shared segment.

        The copy is deliberate: decode happens batch-by-batch and the
        driver may rotate the segment later; a worker must never hold live
        views into a log it does not own.
        """
        return np.array(self._buffer.array[start : start + length])

    def release(self) -> None:
        """Drop the mapping (never unlinks — the driver owns the log)."""
        if self._buffer is not None:
            self._buffer.release()
            self._buffer = None
