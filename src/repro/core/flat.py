"""Shared primitives of the vectorized (slot-space) update-sweep repair.

The vectorized repair phases in :mod:`repro.core.addition`,
:mod:`repro.core.removal` and :mod:`repro.core.accumulation` all work on the
same raw material: a compiled CSR snapshot of the graph *as of one update of
the batch* (:class:`FlatBatchState`), the store's own column matrices seen
as flat pair arrays (:class:`PairSpace`), and a few order-preserving array
tricks.  This module holds that common ground.

**Pair space.**  A store's three matrices are C-contiguous ``(rows,
capacity)`` arrays, so the pair ``(row, slot)`` — one source's record at
one vertex — has the flat id ``row * capacity + slot`` in all three.  The
cohort sweep classifies, repairs and accumulates every affected source of
an update at once by gathering and scattering at flat ids, *in place* on
the store: memory and work scale with the pairs an update touches, not
with the cohort size times ``n``.  The first time an update writes a
pair, the pair's pre-update triple goes into a compact undo log; reads of
pre-update values come from the live matrices except at logged pairs.  The
same log rolls a failed batch back.  Per-pair bookkeeping (the repair
walks' visited sets) is bits in one persistent store-shaped byte array,
cleared only where it was set, and the rows in which the current update
wrote a distance are one persistent byte per row.

The tricks carry the bit-identity burden:

* :func:`slice_positions` flattens the adjacency slices of a vertex array in
  *vertex order* — the exact sequence a scalar ``for v: for nbr in adj[v]``
  double loop visits; :func:`scan_entries` adds each entry's vertex, so
  every other per-entry repeat of a per-vertex array is one gather;
* :meth:`PairSpace.first_occurrence` deduplicates such a flattened sequence
  keeping the first copy of every pair in encounter order — the exact
  sequence in which a scalar loop guarded by a "seen" set admits them;
* :func:`merge_order` interleaves two selections of one flattened sequence
  back into visitation order — the order in which a scalar loop testing
  both conditions per element emits them; when both selections are the
  same entries, :func:`interleave` lays out that order with no sort.

Full-length passes over a scan are what the sweeps pay for, so the
helpers avoid them where the answer is known.
:meth:`PairSpace.old_parents` evaluates the accumulation's old-DAG parent
test only at the entries where it can disagree with the new-DAG one and
reuses the new selection when it does not; :func:`group_by_level`
returns a one-level group without a distinct-value pass or a copy.

Everything else in the vectorized phases is arithmetic on arrays arranged by
these orders, applied through ``np.add.at``, which applies duplicate
indices sequentially in operand order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FlatBatchState",
    "PairSpace",
    "slice_positions",
    "scan_entries",
    "merge_order",
    "interleave",
    "group_by_level",
]

#: Bits of :attr:`PairSpace.flags`.  ``LOGGED`` marks pairs in the current
#: update's undo log; the others are the repair walks' per-pair sets.
#: ``REGION`` (directed accumulation) shares its bit with ``TRACKED``
#: (undirected accumulation): one sweep never runs both.
LOGGED = 1
AFFECTED = 2
TRACKED = REGION = 4
PROCESSED = 8
SCHEDULED = 16
DROPPED = 32
DECIDED = 64

#: Pairs whose distance an update may have moved: repaired (``AFFECTED``)
#: or dropped (``DROPPED``, which covers the disconnected ones).  Every
#: pair whose path count moved is ``AFFECTED``.
_MOVABLE = AFFECTED | DROPPED


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


def scan_entries(
    indptr: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`slice_positions` plus each entry's vertex and each vertex's entries.

    Returns ``(positions, member, bounds)``: ``positions`` walks the slices
    in ``vertices`` order, ``member[e]`` is the index into ``vertices`` of
    entry ``e``'s vertex, and entries ``bounds[j]:bounds[j + 1]`` are
    vertex ``j``'s.  Every other per-entry repeat of a per-vertex array is
    one gather through ``member``.
    """
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    bounds = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    member = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
    positions = (starts - bounds[:-1])[member]
    positions += np.arange(member.size, dtype=np.int64)
    return positions, member, bounds


class PairSpace:
    """The store's column matrices as flat pair arrays, plus an undo log.

    :meth:`bind` adopts the store's live ``(distance, sigma, delta)``
    matrices as flat views (:attr:`distance`, :attr:`sigma`,
    :attr:`delta`); repairs write them in place.  Before a pair is first
    written in an update, :meth:`touch` appends its pre-update triple to
    the log and records the log position in :attr:`position`, so
    :meth:`old_distance` / :meth:`old_sigma` read pre-update values for
    any pair, and ``log_*[position[pid]]`` for pairs known to be logged.

    :attr:`flags` (one byte per pair) and :attr:`position` (an int32 per
    pair) are store-shaped and persist across updates and batches: five
    bytes per pair, cleared only where they were set.  Every bit but
    ``DECIDED`` is set only on pairs the update logs, so clearing the
    logged pairs' flags when the update ends clears them;
    :meth:`mark_unlogged` records the others.  A position is read only
    where ``LOGGED`` is set; :meth:`first_occurrence` borrows
    :attr:`position` as its scratch and restores what it overwrote.  The
    log spans the whole batch, one segment per update (``LOGGED`` marks
    only the current segment's pairs), so :meth:`rollback` can restore
    every record the batch wrote.
    """

    def __init__(self) -> None:
        self.flags = np.zeros(0, dtype=np.uint8)
        self.position = np.empty(0, dtype=np.int32)
        self.width = 0
        self.distance = self.sigma = self.delta = None
        self.size = 0
        self.log_pid = np.empty(0, dtype=np.int64)
        self.log_distance = np.empty(0, dtype=np.int16)
        self.log_sigma = np.empty(0, dtype=np.int64)
        self.log_delta = np.empty(0, dtype=np.float64)
        #: True once the current update wrote a distance: until then old
        #: and live distances agree everywhere.
        self.distance_moved = False
        #: Per store row: did the current update write a distance in it?
        #: Old and live distances agree everywhere in the other rows.
        self.moved_rows = np.zeros(0, dtype=np.bool_)
        self._unlogged: List[np.ndarray] = []
        #: Log position where each update of the batch starts its segment.
        self._starts: List[int] = []

    # -- binding ---------------------------------------------------------- #
    def bind(self, matrices: Sequence[np.ndarray]) -> None:
        """Adopt the store's matrices (C-contiguous ``(rows, capacity)``)."""
        distance = matrices[0]
        if not all(matrix.flags.c_contiguous for matrix in matrices):
            raise ValueError("pair space needs C-contiguous column matrices")
        # Reshaping a C-contiguous matrix is a view: writes reach the store.
        self.distance, self.sigma, self.delta = (
            matrix.reshape(-1) for matrix in matrices
        )
        self.width = distance.shape[1]
        if self.flags.size != distance.size:
            self.flags = np.zeros(distance.size, dtype=np.uint8)
            self.position = np.empty(distance.size, dtype=np.int32)
        if self.moved_rows.size != distance.shape[0]:
            self.moved_rows = np.zeros(distance.shape[0], dtype=np.bool_)

    def unbind(self) -> None:
        """Forget the batch: clear every bit, drop the log and the views."""
        self._clear()
        self.size = 0
        self._starts = []
        self.distance = self.sigma = self.delta = None

    # -- per-pair bits ---------------------------------------------------- #
    def has(self, pids: np.ndarray, bit: int) -> np.ndarray:
        """Boolean mask: which of ``pids`` carry ``bit``."""
        return (self.flags[pids] & bit) != 0

    def mark(self, pids: np.ndarray, bit: int) -> None:
        """Set ``bit`` on ``pids``, pairs this update logs."""
        self.flags[pids] |= bit

    def mark_unlogged(self, pids: np.ndarray, bit: int) -> None:
        """Set ``bit`` on ``pids``, which the update may never log."""
        if pids.size:
            self.flags[pids] |= bit
            self._unlogged.append(pids)

    def first_occurrence(
        self, values: np.ndarray, unlogged: bool = False
    ) -> np.ndarray:
        """First copy of every pair in ``values``, in encounter order.

        Reversed assignment makes the *first* occurrence win, so comparing
        each element's recorded first position with its own position keeps
        exactly the first copy of every pair — no sort, no hashing.  The
        scratch is :attr:`position`, whose overwritten entries are put back
        unless the caller knows no pair of ``values`` is logged.
        """
        if values.size <= 1:
            return values
        position = self.position
        if not unlogged:
            saved = position[values]
        flat = np.arange(values.size, dtype=np.int32)
        position[values[::-1]] = flat[::-1]
        first = values[position[values] == flat]
        if not unlogged:
            position[values] = saved
        return first

    # -- the undo log ----------------------------------------------------- #
    def touch(self, pids: np.ndarray, distance: bool = False, bits: int = 0) -> None:
        """Log the pre-update triple of every pair of ``pids`` not yet logged.

        Call before writing ``pids`` (distinct pair ids); ``distance=True``
        announces a distance write, and ``bits`` are set on all of
        ``pids`` on the way.  Fresh pairs take consecutive log positions in
        ``pids`` order.
        """
        if distance:
            self.distance_moved = True
            self.moved_rows[pids // self.width] = True
        flags = self.flags[pids]
        self.flags[pids] = flags | (bits | LOGGED)
        fresh_sel = (flags & LOGGED) == 0
        fresh = pids if fresh_sel.all() else pids[fresh_sel]
        start = self.size
        stop = start + fresh.size
        if stop == start:
            return
        if stop > self.log_pid.size:
            self._grow_log(stop)
        self.log_pid[start:stop] = fresh
        self.log_distance[start:stop] = self.distance[fresh]
        self.log_sigma[start:stop] = self.sigma[fresh]
        self.log_delta[start:stop] = self.delta[fresh]
        self.position[fresh] = np.arange(start, stop, dtype=np.int32)
        self.size = stop

    def _grow_log(self, needed: int) -> None:
        grown = max(needed, 2 * self.log_pid.size, 1024)
        for name in ("log_pid", "log_distance", "log_sigma", "log_delta"):
            old = getattr(self, name)
            new = np.empty(grown, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def old_distance(
        self,
        pids: np.ndarray,
        live: Optional[np.ndarray] = None,
        flags: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pre-update distances of ``pids``.

        ``live`` and ``flags`` are the pairs' live distances and flags when
        the caller already gathered them (``live`` is then patched in
        place and returned).
        """
        values = self.distance[pids] if live is None else live
        if self.distance_moved:
            if flags is None:
                flags = self.flags[pids]
            hit = np.flatnonzero((flags & _MOVABLE) != 0)
            if hit.size:
                values[hit] = self.log_distance[self.position[pids[hit]]]
        return values

    def old_sigma(
        self, pids: np.ndarray, flags: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Pre-update path counts of ``pids`` (``flags``: theirs, if at hand)."""
        values = self.sigma[pids]
        if flags is None:
            flags = self.flags[pids]
        hit = np.flatnonzero((flags & AFFECTED) != 0)
        if hit.size:
            values[hit] = self.log_sigma[self.position[pids[hit]]]
        return values

    def old_parents(
        self,
        ppid: np.ndarray,
        member: np.ndarray,
        bounds: np.ndarray,
        rows: np.ndarray,
        wdo: np.ndarray,
        level: int,
        i_new: np.ndarray,
    ) -> np.ndarray:
        """Entries of a chunk scan whose parent is an old-DAG parent.

        A chunk's members sit on new level ``level``; entry ``e`` pairs
        member ``member[e]`` (pre-update distance ``wdo[member[e]]``,
        entries ``bounds[j]:bounds[j + 1]`` for member ``j``) with the
        parent pair ``ppid[e]``.  ``i_new`` are the entries whose parent
        passes the new-DAG test ``d'[p] == level - 1``.  Returns the
        ascending entries that pass the old-DAG test
        ``old_distance(p) == wdo - 1``, the same selection as that formula
        evaluated at every entry.

        The old test is evaluated only where it can differ from the new
        one.  At a member that kept its level (``wdo == level``) and a
        parent that is neither ``AFFECTED`` nor ``DROPPED``,
        ``old_distance(p)`` is the live ``d'[p]``, so the two tests are the
        same comparison.  The exceptions are the entries of moved members
        (``wdo == -1`` included) and entries whose parent carries either
        bit in a row ``rows[member[e]]`` where the update wrote a distance
        (:meth:`touch` with ``distance=True``): elsewhere a logged distance
        is the live one.  The result is ``i_new`` itself when no exception
        changes an outcome.
        """
        moved = np.flatnonzero(wdo != level)
        exceptions, _ = slice_positions(bounds, moved)
        if self.distance_moved:
            # A parent shares its member's row, and only a row in which
            # the update wrote a distance can hold a moved one.
            suspects = np.flatnonzero(self.moved_rows[rows])
            if suspects.size == rows.size:
                hit = np.flatnonzero((self.flags[ppid] & _MOVABLE) != 0)
            else:
                entries, _ = slice_positions(bounds, suspects)
                hit = entries[(self.flags[ppid[entries]] & _MOVABLE) != 0]
            if exceptions.size:
                # Moved members' entries are exceptions already.
                hit = hit[wdo[member[hit]] == level]
                exceptions = np.concatenate((exceptions, hit))
            else:
                exceptions = hit
        if exceptions.size == 0:
            return i_new
        pids = ppid[exceptions]
        live = self.distance[pids]
        new_ok = live == level - 1
        old_ok = self.old_distance(pids, live) == wdo[member[exceptions]] - 1
        lost = exceptions[new_ok & ~old_ok]
        gained = exceptions[old_ok & ~new_ok]
        if lost.size == 0 and gained.size == 0:
            return i_new
        i_old = i_new
        if lost.size:
            kept = np.ones(i_new.size, dtype=np.bool_)
            kept[np.searchsorted(i_new, lost)] = False
            i_old = i_new[kept]
        if gained.size:
            gained.sort()
            i_old = np.insert(i_old, np.searchsorted(i_old, gained), gained)
        return i_old

    # -- update and batch boundaries -------------------------------------- #
    def begin_update(self) -> None:
        """Start the next update of the batch: clear the last update's bits
        and open a new log segment (the old ones stay for :meth:`rollback`)."""
        self._clear()
        self._starts.append(self.size)

    def rollback(self) -> None:
        """Restore every pair the batch wrote to its pre-batch value."""
        stops = self._starts[1:] + [self.size]
        # Latest segment first, so a pair logged by several updates ends at
        # the value the batch's first write of it saw.
        for start, stop in zip(reversed(self._starts), reversed(stops)):
            pids = self.log_pid[start:stop]
            self.distance[pids] = self.log_distance[start:stop]
            self.sigma[pids] = self.log_sigma[start:stop]
            self.delta[pids] = self.log_delta[start:stop]
        # A walk cut short may have left bits on pairs it had yet to log.
        self.flags.fill(0)
        self._unlogged = []
        self._starts = []
        self.unbind()

    def _clear(self) -> None:
        """Clear the bits of the current update's segment."""
        if self._unlogged:
            self.flags[np.concatenate(self._unlogged)] = 0
            self._unlogged = []
        if self._starts:
            self.flags[self.log_pid[self._starts[-1] : self.size]] = 0
        if self.distance_moved:
            self.moved_rows.fill(False)
        self.distance_moved = False


def merge_order(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Permutation merging two strictly ascending position arrays, ``first`` winning ties.

    ``np.concatenate((first, second))[merge_order(first, second)]`` is the
    merged ascending sequence, with an element of ``first`` placed before
    an equal element of ``second``.  The parity keys ``2 * first`` and
    ``2 * second + 1`` are two ascending runs, which the stable sort
    (timsort) detects and merges in one linear pass.
    """
    return np.argsort(np.concatenate((2 * first, 2 * second + 1)), kind="stable")


def group_by_level(
    vertices: np.ndarray, levels: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Split ``vertices`` into per-level groups, preserving order within each.

    The scalar code appends each vertex to ``buckets[level]`` while
    iterating ``vertices``; a stable selection per distinct level reproduces
    every bucket's append order exactly.  A single level's group is
    ``vertices`` itself, not a copy.
    """
    if vertices.size == 0:
        return []
    first = levels[0]
    if (levels == first).all():
        # Most groups are one level (a chunk's parents all sit one level
        # up): no distinct-value pass.
        return [(int(first), vertices)]
    return [
        (int(level), vertices[levels == level]) for level in np.unique(levels)
    ]


def interleave(
    first: np.ndarray, second: np.ndarray, keep: Optional[np.ndarray] = None
) -> np.ndarray:
    """``first[0], second[0], first[1], second[1], ...`` as one array.

    ``keep`` (optional, flat, ``2 * first.size`` booleans) drops the
    positions it marks False.  When two selections of one scan are the
    same entries, this is :func:`merge_order`'s merged sequence without a
    sort: each entry's ``first`` element precedes its ``second``.
    """
    out = np.empty(2 * first.size, dtype=np.result_type(first, second))
    out[0::2] = first
    out[1::2] = second
    return out if keep is None else out[keep]
