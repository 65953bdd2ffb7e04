"""Per-source classification of an edge update.

For a given source ``s``, the work required by an update to edge ``(u1, u2)``
depends on the difference ``dd = d(s, uL) - d(s, uH)`` between the distances
of the two endpoints (Section 3.1 of the paper), where ``uH`` is the endpoint
closer to the source and ``uL`` the farther one:

* ``dd == 0`` (or both endpoints unreachable): the edge lies on no shortest
  path from ``s`` (Proposition 3.1), so the source is skipped entirely;
* addition with ``dd == 1``: no structural change, only path counts and
  dependencies must be repaired (Algorithm 2);
* addition with ``dd > 1`` (including a previously unreachable ``uL``):
  structural change — distances shrink in the sub-DAG under ``uL``
  (Algorithm 4);
* removal with ``dd == 1`` where ``uL`` keeps another predecessor: no
  structural change (Algorithm 2, deletion flavour);
* removal where ``uL`` loses its last predecessor: structural change repaired
  through pivots (Algorithms 6-9), possibly disconnecting a component
  (Algorithm 10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.core.updates import EdgeUpdate
from repro.graph.graph import Graph
from repro.types import Vertex


class UpdateCase(enum.Enum):
    """The per-source update cases of Section 3.1."""

    SKIP = "skip"
    ADD_NO_STRUCTURE = "add_no_structure"
    ADD_STRUCTURAL = "add_structural"
    REMOVE_NO_STRUCTURE = "remove_no_structure"
    REMOVE_STRUCTURAL = "remove_structural"


@dataclass(frozen=True)
class SourceClassification:
    """Outcome of classifying one update for one source.

    ``high`` (``uH``) is the endpoint closer to the source and ``low``
    (``uL``) the farther one; both are ``None`` for skipped sources where the
    distinction is irrelevant.  ``distance_difference`` is ``dd``; ``None``
    encodes "``uL`` unreachable" (infinite difference).
    """

    case: UpdateCase
    high: Optional[Vertex] = None
    low: Optional[Vertex] = None
    distance_difference: Optional[int] = None


def classify(
    graph: Graph, data: SourceData, update: EdgeUpdate
) -> SourceClassification:
    """Classify ``update`` for the source whose betweenness data is ``data``.

    ``graph`` must already reflect the update (edge added or removed), since
    the removal case needs to inspect the *remaining* predecessors of ``uL``.

    On a directed graph the endpoints cannot be reordered by distance: the
    updated edge only ever carries paths ``u -> v``, so ``uH`` is always the
    tail and ``uL`` always the head (see :func:`_classify_directed`).
    """
    if graph.directed:
        return _classify_directed(graph, data, update)
    u, v = update.endpoints
    du = data.distance.get(u)
    dv = data.distance.get(v)

    # Both endpoints unreachable: the update can neither create nor destroy
    # any shortest path from this source.
    if du is None and dv is None:
        return SourceClassification(UpdateCase.SKIP)

    # Order the endpoints: uH is closer to the source (unreachable counts as
    # infinitely far).
    if dv is None or (du is not None and du <= dv):
        high, low, d_high, d_low = u, v, du, dv
    else:
        high, low, d_high, d_low = v, u, dv, du

    if update.is_addition:
        if d_low is None:
            # uL previously unreachable: structural change, distances appear.
            return SourceClassification(
                UpdateCase.ADD_STRUCTURAL, high, low, None
            )
        dd = d_low - d_high
        if dd == 0:
            return SourceClassification(UpdateCase.SKIP, high, low, 0)
        if dd == 1:
            return SourceClassification(UpdateCase.ADD_NO_STRUCTURE, high, low, 1)
        return SourceClassification(UpdateCase.ADD_STRUCTURAL, high, low, dd)

    # Removal: the two endpoints were adjacent, so if one is reachable the
    # other is too and their distances differ by at most one.
    if d_low is None or d_high is None:
        return SourceClassification(UpdateCase.SKIP)
    dd = d_low - d_high
    if dd == 0:
        # Proposition 3.1: no shortest path used the removed edge.
        return SourceClassification(UpdateCase.SKIP, high, low, 0)
    if _has_other_predecessor(graph, data, low):
        return SourceClassification(UpdateCase.REMOVE_NO_STRUCTURE, high, low, dd)
    return SourceClassification(UpdateCase.REMOVE_STRUCTURAL, high, low, dd)


def _classify_directed(
    graph: Graph, data: SourceData, update: EdgeUpdate
) -> SourceClassification:
    """Directed-edge classification: the edge is oriented ``u -> v``.

    Only paths traversing the edge in its own direction exist, so the roles
    are fixed (``uH = u``, ``uL = v``) and ``dd = d(s, v) - d(s, u)`` may be
    negative — any ``dd <= 0`` means the edge lies on no shortest path from
    this source (the directed form of Proposition 3.1) and the source is
    skipped.  An unreachable tail likewise guarantees a skip, whatever the
    head's distance: no path from the source can enter the edge.
    """
    u, v = update.endpoints
    du = data.distance.get(u)
    dv = data.distance.get(v)

    if du is None:
        return SourceClassification(UpdateCase.SKIP)

    if update.is_addition:
        if dv is None:
            # Head previously unreachable: structural, distances appear.
            return SourceClassification(UpdateCase.ADD_STRUCTURAL, u, v, None)
        dd = dv - du
        if dd <= 0:
            return SourceClassification(UpdateCase.SKIP, u, v, dd)
        if dd == 1:
            return SourceClassification(UpdateCase.ADD_NO_STRUCTURE, u, v, 1)
        return SourceClassification(UpdateCase.ADD_STRUCTURAL, u, v, dd)

    # Removal: with a reachable tail the head was reachable too while the
    # edge existed (d(v) <= d(u) + 1); the edge carried shortest paths iff
    # the difference is exactly one.
    if dv is None:
        return SourceClassification(UpdateCase.SKIP)
    dd = dv - du
    if dd != 1:
        return SourceClassification(UpdateCase.SKIP, u, v, dd)
    if _has_other_predecessor(graph, data, v):
        return SourceClassification(UpdateCase.REMOVE_NO_STRUCTURE, u, v, 1)
    return SourceClassification(UpdateCase.REMOVE_STRUCTURAL, u, v, 1)


def _has_other_predecessor(graph: Graph, data: SourceData, low: Vertex) -> bool:
    """Does ``low`` still have a shortest-path predecessor after the removal?

    Predecessors are identified by distance level (the paper's
    predecessor-free convention): any remaining neighbor one level closer to
    the source.  The removed edge is already absent from ``graph``, so the
    scan naturally excludes it.
    """
    target_level = data.distance[low] - 1
    for neighbor in graph.in_neighbors(low):
        if data.distance.get(neighbor) == target_level:
            return True
    return False


#: Integer codes of :func:`classify_cohort`: ``CASE_ORDER[code]``.
CASE_ORDER = (
    UpdateCase.SKIP,
    UpdateCase.ADD_NO_STRUCTURE,
    UpdateCase.ADD_STRUCTURAL,
    UpdateCase.REMOVE_NO_STRUCTURE,
    UpdateCase.REMOVE_STRUCTURAL,
)
SKIP_CODE, ADD_SAME_CODE, ADD_STRUCT_CODE, REMOVE_SAME_CODE, REMOVE_STRUCT_CODE = (
    range(len(CASE_ORDER))
)


def classify_cohort(
    state, distance: np.ndarray, width: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`classify` for every source row of a cohort in one pass.

    ``state`` is the :class:`~repro.core.flat.FlatBatchState` of the update
    (graph already reflecting it, endpoints as slots), ``distance`` the
    store's flat distance plane (``-1`` = unreachable, pair ``row * width +
    slot``) and ``rows`` the cohort's store rows.  Returns ``(codes, highs,
    lows)`` aligned with ``rows``: :data:`CASE_ORDER` codes and slot
    endpoints.  The decision tree is a literal transcription of
    :func:`classify` / :func:`_classify_directed` with ``-1`` standing in
    for ``None``, evaluated on one ``rows x 2`` endpoint gather; a removal's
    "other predecessor" test is one block gather over the low endpoint's
    in-neighbours.
    """
    us, vs = state.us, state.vs
    base = rows * width
    du = distance[base + us].astype(np.int64)
    dv = distance[base + vs].astype(np.int64)
    if state.directed:
        highs = np.full(rows.size, us, dtype=np.int64)
        lows = np.full(rows.size, vs, dtype=np.int64)
        d_high, d_low = du, dv
        dead = du == -1
    else:
        # Order the endpoints: uH is closer to the source (unreachable
        # counts as infinitely far; ties keep u as uH, like classify).
        u_high = (dv == -1) | ((du != -1) & (du <= dv))
        highs = np.where(u_high, us, vs)
        lows = np.where(u_high, vs, us)
        d_high = np.where(u_high, du, dv)
        d_low = np.where(u_high, dv, du)
        dead = (du == -1) & (dv == -1)
    dd = d_low - d_high
    if state.is_addition:
        same = dd == 1 if state.directed else (dd == 1) & (d_low != -1)
        skip = dd <= 0 if state.directed else dd == 0
        codes = np.where(same, ADD_SAME_CODE, ADD_STRUCT_CODE)
        codes[(d_low != -1) & skip] = SKIP_CODE
    else:
        if state.directed:
            candidate = (d_low != -1) & (dd == 1)
        else:
            candidate = (d_low != -1) & (d_high != -1) & (dd != 0)
        codes = np.where(candidate, REMOVE_STRUCT_CODE, SKIP_CODE)
        for low in (vs, us):
            sel = np.flatnonzero(candidate & (lows == low))
            parents = state.in_indices[state.in_indptr[low] : state.in_indptr[low + 1]]
            if sel.size == 0 or parents.size == 0:
                continue
            block = distance[base[sel][:, None] + parents[None, :]]
            other = (block == (d_low[sel] - 1)[:, None]).any(axis=1)
            codes[sel[other]] = REMOVE_SAME_CODE
            if state.directed:
                break
    codes[dead] = SKIP_CODE
    return codes.astype(np.int8), highs, lows
