"""Shared primitives of the vectorized (slot-space) update-sweep repair.

The vectorized repair phases in :mod:`repro.core.addition`,
:mod:`repro.core.removal` and :mod:`repro.core.accumulation` all work on the
same raw material: a compiled CSR snapshot of the graph *as of one update of
the batch* (:class:`FlatBatchState`), the record's column arrays, and a
few order-preserving array tricks.  This module holds that common ground.

The tricks carry the bit-identity burden:

* :func:`slice_positions` flattens the adjacency slices of a vertex array in
  *vertex order* — the exact sequence a scalar ``for v: for nbr in adj[v]``
  double loop visits;
* :func:`first_occurrence` deduplicates such a flattened sequence keeping the
  first copy of every slot in encounter order — the exact sequence in which
  a scalar loop guarded by a "seen" set admits them;
* :func:`merge_order` interleaves two selections of one flattened sequence
  back into visitation order — the order in which a scalar loop testing
  both conditions per element emits them.

Everything else in the vectorized phases is arithmetic on arrays arranged by
these two orders, applied through ``np.add.at``, which applies duplicate
indices sequentially in operand order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

__all__ = [
    "FlatBatchState",
    "slice_positions",
    "first_occurrence",
    "merge_order",
    "group_by_level",
]


class FlatBatchState(NamedTuple):
    """Compiled slot-space graph snapshot for one update of a batch.

    Holds the out-CSR and the in-CSR family of the graph *after* applying
    the batch prefix up to and including this update (the state every
    scalar repair of this update sees).  The arrays are patched copies of
    the kernel's live CSR (:func:`repro.graph.csr.with_edge` /
    :func:`~repro.graph.csr.without_edge` never write their inputs, so the
    references stay valid snapshots), and ``in_edge_ids`` already holds
    permanent :class:`~repro.core.kernel.EdgeScoreRegistry` ids, so edge
    contributions land in the same accumulator across snapshots.
    ``edge_id`` is the registry id of this update's own edge.
    """

    n: int
    directed: bool
    indptr: np.ndarray
    indices: np.ndarray
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_edge_ids: np.ndarray
    us: int
    vs: int
    is_addition: bool
    edge_id: int


def slice_positions(
    indptr: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened ``indices`` positions of every vertex's adjacency slice.

    Returns ``(positions, counts)`` where ``positions`` walks the slices in
    ``vertices`` order — i.e. the exact order a scalar loop ``for v in
    vertices: for nbr in adj[v]`` would visit them.
    """
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    offsets = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return positions, counts


def first_occurrence(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """First copy of every slot in ``values``, in encounter order.

    ``scratch`` is a length-``n`` int64 array (slots index into it); its
    contents are overwritten before every read.  Reversed assignment makes
    the *first* occurrence win, so comparing each element's recorded first
    position with its own position keeps exactly the first copy of every
    slot — no sort, no hashing.
    """
    if values.size <= 1:
        return values
    flat = np.arange(values.size, dtype=np.int64)
    scratch[values[::-1]] = flat[::-1]
    return values[scratch[values] == flat]


def merge_order(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Permutation merging two strictly ascending position arrays, ``first`` winning ties.

    ``np.concatenate((first, second))[merge_order(first, second)]`` is the
    merged ascending sequence, with an element of ``first`` placed before
    an equal element of ``second`` — exactly
    ``np.argsort(np.concatenate((2 * first, 2 * second + 1)))``.  An
    element of ``first`` lands at its own index plus the number of smaller
    elements of ``second`` (one binary-search pass over sorted operands);
    ``second`` fills the remaining slots in its own order.  No sort runs.
    """
    size = first.size
    total = size + second.size
    at_first = np.arange(size) + np.searchsorted(second, first, side="left")
    from_second = np.ones(total, dtype=np.bool_)
    from_second[at_first] = False
    order = np.empty(total, dtype=np.int64)
    order[at_first] = np.arange(size)
    order[from_second] = np.arange(size, total)
    return order


def group_by_level(
    vertices: np.ndarray, levels: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Split ``vertices`` into per-level groups, preserving order within each.

    The scalar code appends each vertex to ``buckets[level]`` while
    iterating ``vertices``; a stable selection per distinct level reproduces
    every bucket's append order exactly.
    """
    out: List[Tuple[int, np.ndarray]] = []
    if vertices.size == 0:
        return out
    for level in np.unique(levels):
        out.append((int(level), vertices[levels == level]))
    return out
