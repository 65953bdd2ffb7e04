"""Search-phase repair for edge removals (Algorithms 2, 6-10 of the paper).

Removal is the harder direction: when ``uL`` loses its last shortest-path
predecessor, part of the sub-DAG below it drops one or more levels, and the
new distances cannot be discovered from ``uL`` alone — they must be seeded
from *pivots*, vertices that keep their distance but have neighbors that do
not (Definition 3.2).  When no pivot exists the sub-DAG becomes disconnected
from the source (Algorithm 10).

All routines operate per source on the stored ``BD[s]`` and return a
:class:`~repro.core.repair.RepairPlan`.  The graph passed in must already
have the edge removed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.core.flat import (
    FlatBatchState,
    first_occurrence,
    group_by_level,
    slice_positions,
)
from repro.core.repair import RepairPlan
from repro.graph.graph import Graph
from repro.types import Vertex


def _removed_edge_dependency(data: SourceData, high: Vertex, low: Vertex) -> float:
    """Old dependency carried by the removed shortest-path edge ``(high, low)``.

    This is the term ``sigma[uH]/sigma[uL] * (1 + delta[uL])`` that
    Algorithms 2, 7, 9 and 10 subtract from ``delta[uH]`` before backtracking,
    because the edge no longer exists and would otherwise never be visited.
    """
    return data.sigma[high] / data.sigma[low] * (1.0 + data.delta.get(low, 0.0))


def repair_removal_same_level(
    graph: Graph, data: SourceData, high: Vertex, low: Vertex
) -> RepairPlan:
    """Repair after removing ``(high, low)`` when ``low`` keeps its level.

    ``low`` still has at least one other predecessor, so no distance changes
    (Algorithm 2, deletion flavour): the shortest paths that used the removed
    edge are subtracted from the sub-DAG rooted at ``low``.
    """
    plan = RepairPlan(high=high, low=low)
    distance = data.distance
    sigma = data.sigma

    plan.removed_edge_dependency = _removed_edge_dependency(data, high, low)
    plan.new_sigma[low] = sigma[low] - sigma[high]
    plan.affected.add(low)
    plan.enqueue(low, distance[low])

    queue: deque[Vertex] = deque([low])
    while queue:
        vertex = queue.popleft()
        vertex_level = distance[vertex]
        delta_sigma = plan.new_sigma[vertex] - sigma[vertex]
        for neighbor in graph.out_neighbors(vertex):
            if distance.get(neighbor) != vertex_level + 1:
                continue
            if neighbor not in plan.affected:
                plan.new_sigma[neighbor] = sigma[neighbor]
                plan.affected.add(neighbor)
                plan.enqueue(neighbor, vertex_level + 1)
                queue.append(neighbor)
            plan.new_sigma[neighbor] += delta_sigma
    return plan


def find_drop_set(graph: Graph, data: SourceData, low: Vertex) -> Dict[Vertex, None]:
    """Vertices whose distance from the source increases after the removal.

    A vertex drops if and only if *all* of its shortest-path predecessors
    drop (``low`` itself drops by assumption: it just lost its last
    predecessor).  Candidates are explored in increasing old distance so that
    every predecessor's fate is decided before the vertex is examined; this
    mirrors the pivot-finding BFS of Algorithm 6, with the complement of the
    drop set adjacent to it forming the pivots.

    The result is an insertion-ordered dict used as an ordered set:
    downstream stages iterate over it, and a deterministic (discovery)
    order keeps the whole repair reproducible and lets the array-native
    kernel mirror it exactly in slot space.
    """
    distance = data.distance
    drop: Dict[Vertex, None] = {low: None}
    decided: Set[Vertex] = {low}

    buckets: Dict[int, List[Vertex]] = {}

    def schedule_children(vertex: Vertex) -> None:
        vertex_level = distance[vertex]
        for child in graph.out_neighbors(vertex):
            if distance.get(child) == vertex_level + 1 and child not in decided:
                buckets.setdefault(vertex_level + 1, []).append(child)

    schedule_children(low)
    if not buckets:
        return drop
    level = min(buckets)
    max_level = max(buckets)
    while level <= max_level:
        queue = buckets.get(level, [])
        index = 0
        while index < len(queue):
            vertex = queue[index]
            index += 1
            if vertex in decided:
                continue
            decided.add(vertex)
            parent_level = distance[vertex] - 1
            all_parents_drop = True
            for parent in graph.in_neighbors(vertex):
                if distance.get(parent) == parent_level and parent not in drop:
                    all_parents_drop = False
                    break
            if all_parents_drop:
                drop[vertex] = None
                schedule_children(vertex)
                max_level = max(max_level, level + 1)
        level += 1
    return drop


def repair_removal_structural(
    graph: Graph, data: SourceData, high: Vertex, low: Vertex
) -> RepairPlan:
    """Repair after removing ``(high, low)`` when ``low`` loses its last predecessor.

    Three stages (Algorithms 6-7, with Algorithm 10 folded in for the
    disconnected part):

    1. find the drop set (vertices whose distance increases) and, implicitly,
       the pivots at its boundary;
    2. recompute the new distances of dropped vertices with a multi-source
       level-ordered traversal seeded from the pivots; dropped vertices that
       are never reached became disconnected from the source;
    3. recompute the shortest-path counts of every affected vertex (dropped
       vertices plus vertices that lost a dropped predecessor and their
       descendants) in increasing order of new distance.
    """
    plan = RepairPlan(high=high, low=low)
    old_distance = data.distance
    old_sigma = data.sigma
    plan.removed_edge_dependency = _removed_edge_dependency(data, high, low)

    drop = find_drop_set(graph, data, low)

    # ------------------------------------------------------------------ #
    # Stage 2: new distances for dropped vertices, seeded from pivots.
    # ------------------------------------------------------------------ #
    new_distance = plan.new_distance
    tentative: Dict[Vertex, int] = {}
    buckets: Dict[int, List[Vertex]] = {}
    for vertex in drop:
        best: Optional[int] = None
        for neighbor in graph.in_neighbors(vertex):
            if neighbor in drop:
                continue
            neighbor_distance = old_distance.get(neighbor)
            if neighbor_distance is None:
                continue
            if best is None or neighbor_distance + 1 < best:
                best = neighbor_distance + 1
        if best is not None:
            tentative[vertex] = best
            buckets.setdefault(best, []).append(vertex)

    settled: Set[Vertex] = set()
    if buckets:
        level = min(buckets)
        max_level = max(buckets)
        while level <= max_level:
            queue = buckets.get(level, [])
            index = 0
            while index < len(queue):
                vertex = queue[index]
                index += 1
                if vertex in settled or tentative.get(vertex) != level:
                    continue
                settled.add(vertex)
                new_distance[vertex] = level
                for neighbor in graph.out_neighbors(vertex):
                    if neighbor not in drop or neighbor in settled:
                        continue
                    proposal = level + 1
                    current = tentative.get(neighbor)
                    if current is None or proposal < current:
                        tentative[neighbor] = proposal
                        buckets.setdefault(proposal, []).append(neighbor)
                        max_level = max(max_level, proposal)
            level += 1

    plan.disconnected = [vertex for vertex in drop if vertex not in settled]
    disconnected_set = set(plan.disconnected)

    # ------------------------------------------------------------------ #
    # Stage 3: sigma repair over the affected region, by new distance.
    # ------------------------------------------------------------------ #
    def current_distance(vertex: Vertex) -> Optional[int]:
        if vertex in disconnected_set:
            return None
        found = new_distance.get(vertex)
        if found is not None:
            return found
        return old_distance.get(vertex)

    new_sigma = plan.new_sigma
    sigma_buckets: Dict[int, List[Vertex]] = {}
    scheduled: Set[Vertex] = set()

    def schedule(vertex: Vertex) -> None:
        if vertex in scheduled or vertex in disconnected_set:
            return
        vertex_distance = current_distance(vertex)
        if vertex_distance is None:
            return
        scheduled.add(vertex)
        sigma_buckets.setdefault(vertex_distance, []).append(vertex)

    # Seeds: every reachable dropped vertex, plus every surviving vertex that
    # lost a dropped predecessor (its shortest-path count shrinks).
    for vertex in drop:
        schedule(vertex)
    for vertex in drop:
        vertex_level = old_distance[vertex]
        for child in graph.out_neighbors(vertex):
            if child in drop:
                continue
            if old_distance.get(child) == vertex_level + 1:
                schedule(child)

    if sigma_buckets:
        level = min(sigma_buckets)
        max_level = max(sigma_buckets)
        while level <= max_level:
            queue = sigma_buckets.get(level, [])
            index = 0
            while index < len(queue):
                vertex = queue[index]
                index += 1
                if vertex in plan.affected:
                    continue
                plan.affected.add(vertex)
                plan.enqueue(vertex, level)
                total = 0
                for neighbor in graph.in_neighbors(vertex):
                    neighbor_distance = current_distance(neighbor)
                    if neighbor_distance is not None and neighbor_distance + 1 == level:
                        total += new_sigma.get(neighbor, old_sigma.get(neighbor, 0))
                new_sigma[vertex] = total
                for child in graph.out_neighbors(vertex):
                    child_distance = current_distance(child)
                    if child_distance is not None and child_distance == level + 1:
                        if child not in scheduled:
                            scheduled.add(child)
                            sigma_buckets.setdefault(level + 1, []).append(child)
                            max_level = max(max_level, level + 1)
            level += 1

    return plan


# --------------------------------------------------------------------------- #
# Cohort (pair-space) variants — the arrays backend
# --------------------------------------------------------------------------- #
_INF = np.iinfo(np.int64).max


def find_drop_set_cohort(
    state: FlatBatchState,
    ks: np.ndarray,
    lows: np.ndarray,
    old_distance: np.ndarray,
    pair_first: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`find_drop_set` for a cohort, in (job, slot) pair space.

    Returns ``(drop, drop_mask)`` where ``drop`` lists pair ids (``k * n +
    slot``) in discovery order — each job's subsequence is its scalar drop
    order — and ``drop_mask`` is the flat pair-space membership mask.  Per
    level the batch decision is exact: a candidate's fate depends only on
    the drop status of its parents one level up (all decided in earlier
    levels), and candidate dedup combines the decided mask with
    first-occurrence order — exactly the pop-time ``decided`` guard of the
    scalar loop.  Levels are absolute per pair (a job's candidates appear
    only at its own ``d[low] + 1 + hop`` levels), and every drop/survive
    decision reads only the candidate's own row, so the merged level loop
    is exact.
    """
    n = state.n
    indptr, indices = state.indptr, state.indices
    in_indptr, in_indices = state.in_indptr, state.in_indices
    od_flat = old_distance.reshape(-1)

    drop_mask = np.zeros(old_distance.size, dtype=np.bool_)
    decided = np.zeros(old_distance.size, dtype=np.bool_)
    low_pids = ks * n + lows
    drop_mask[low_pids] = True
    decided[low_pids] = True
    drop_chunks: List[np.ndarray] = [low_pids]

    # Initial schedule: children of each low one level below (duplicates
    # kept, as the scalar schedule_children appends them).
    positions, counts = slice_positions(indptr, lows)
    if positions.size == 0:
        return low_pids, drop_mask
    rep = np.repeat(np.arange(lows.size, dtype=np.int64), counts)
    cpid = ks[rep] * n + indices[positions]
    seed = cpid[
        (od_flat[cpid] == od_flat[low_pids][rep] + 1) & ~decided[cpid]
    ]
    if seed.size == 0:
        return low_pids, drop_mask

    buckets: Dict[int, List[np.ndarray]] = {}
    for lvl, members in group_by_level(seed, od_flat[seed].astype(np.int64)):
        buckets.setdefault(lvl, []).append(members)
    level = min(buckets)
    max_level = max(buckets)
    while level <= max_level:
        chunks = buckets.get(level)
        if chunks:
            cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            members = first_occurrence(cand[~decided[cand]], pair_first)
            if members.size:
                decided[members] = True
                mk = members // n
                ms = members - mk * n
                # A member drops iff no parent one level up survives.
                positions, counts = slice_positions(in_indptr, ms)
                has_survivor = np.zeros(members.size, dtype=np.bool_)
                if positions.size:
                    rep = np.repeat(
                        np.arange(members.size, dtype=np.int64), counts
                    )
                    ppid = mk[rep] * n + in_indices[positions]
                    survivors = (od_flat[ppid] == level - 1) & ~drop_mask[ppid]
                    if survivors.any():
                        has_survivor[rep[survivors]] = True
                dropped = members[~has_survivor]
                if dropped.size:
                    drop_mask[dropped] = True
                    drop_chunks.append(dropped)
                    dk = dropped // n
                    ds = dropped - dk * n
                    positions, counts = slice_positions(indptr, ds)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ds.size, dtype=np.int64), counts
                        )
                        kpid = dk[rep] * n + indices[positions]
                        scheduled = kpid[
                            (od_flat[kpid] == level + 1) & ~decided[kpid]
                        ]
                        if scheduled.size:
                            buckets.setdefault(level + 1, []).append(scheduled)
                    max_level = max(max_level, level + 1)
        level += 1
    drop = (
        drop_chunks[0] if len(drop_chunks) == 1 else np.concatenate(drop_chunks)
    )
    return drop, drop_mask


def repair_removal_structural_cohort(
    state: FlatBatchState,
    ks: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
    old_distance: np.ndarray,
    work_distance: np.ndarray,
    work_sigma: np.ndarray,
    affected: np.ndarray,
    pair_first: np.ndarray,
    pair_pos: np.ndarray,
) -> tuple:
    """Algorithms 6-10 for a cohort in pair space: drop set, pivot settle, sigma recount.

    Each stage mirrors its scalar counterpart's bucket order; see the
    per-stage comments for why whole-level batching cannot reorder any
    decision the scalar loop makes element by element.  All three stages
    are level-synchronous integer walks whose per-pair decisions read only
    that pair's row, so the merged absolute-level loops replay each job's
    own stages exactly (each job's pair subsequence of every chunk is its
    scalar bucket).  Stage-2 bookkeeping (``tentative`` /
    ``settled``) is kept compact over the drop list via the ``pair_pos``
    scratch — pair id → drop position — so no dense per-pair integer
    columns are allocated.

    Arguments follow :func:`repair_addition_structural_cohort` plus the
    second pair-space scratch ``pair_pos``.  Returns ``(tri_k, tri_s,
    tri_l, disc)``: merged plan-chunk triples and the disconnected pair
    ids in per-job discovery order.
    """
    n = state.n
    indptr, indices = state.indptr, state.indices
    in_indptr, in_indices = state.in_indptr, state.in_indices
    od_flat = old_distance.reshape(-1)
    wd_flat = work_distance.reshape(-1)
    ws_flat = work_sigma.reshape(-1)
    aff_flat = affected.reshape(-1)

    drop, drop_mask = find_drop_set_cohort(
        state, ks, lows, old_distance, pair_first
    )
    dk = drop // n
    ds = drop - dk * n

    # ------------------------------------------------------------------ #
    # Stage 2: settle new distances of dropped pairs from the pivots.
    # ------------------------------------------------------------------ #
    # Initial tentative distances: best surviving in-neighbor + 1.  A
    # minimum is order-free, so one scatter replaces the scalar scan.
    tentative = np.full(drop.size, _INF, dtype=np.int64)
    positions, counts = slice_positions(in_indptr, ds)
    if positions.size:
        rep = np.repeat(np.arange(drop.size, dtype=np.int64), counts)
        ppid = dk[rep] * n + in_indices[positions]
        ok = ~drop_mask[ppid] & (od_flat[ppid] != -1)
        if ok.any():
            np.minimum.at(
                tentative, rep[ok], od_flat[ppid[ok]].astype(np.int64) + 1
            )
    pair_pos[drop] = np.arange(drop.size, dtype=np.int64)
    settled = np.zeros(drop.size, dtype=np.bool_)

    reachable = tentative != _INF
    seeded = drop[reachable]
    if seeded.size:
        buckets: Dict[int, List[np.ndarray]] = {}
        for lvl, members in group_by_level(seeded, tentative[reachable]):
            buckets.setdefault(lvl, []).append(members)
        level = min(buckets)
        max_level = max(buckets)
        while level <= max_level:
            chunks = buckets.get(level)
            if chunks:
                cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                cpos = pair_pos[cand]
                # Stale entries (tentative since lowered) and relax-time
                # duplicates are rejected exactly as at scalar pop time:
                # relaxation never writes a tentative <= level, so the keep
                # mask is static across the level.
                keep = ~settled[cpos] & (tentative[cpos] == level)
                members = first_occurrence(cand[keep], pair_first)
                if members.size:
                    settled[pair_pos[members]] = True
                    wd_flat[members] = level
                    mk = members // n
                    ms = members - mk * n
                    positions, counts = slice_positions(indptr, ms)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ms.size, dtype=np.int64), counts
                        )
                        kpid = mk[rep] * n + indices[positions]
                        # Restrict to drop pairs before touching the compact
                        # stage-2 state (pair_pos is defined only on drop).
                        in_drop = drop_mask[kpid]
                        sub = kpid[in_drop]
                        spos = pair_pos[sub]
                        relax = ~settled[spos] & (level + 1 < tentative[spos])
                        kids = first_occurrence(sub[relax], pair_first)
                        if kids.size:
                            tentative[pair_pos[kids]] = level + 1
                            buckets.setdefault(level + 1, []).append(kids)
                            max_level = max(max_level, level + 1)
            level += 1

    disconnected = drop[~settled]
    wd_flat[disconnected] = -1

    # ------------------------------------------------------------------ #
    # Stage 3: sigma recount over the affected region, by new distance.
    # ------------------------------------------------------------------ #
    scheduled = np.zeros(old_distance.size, dtype=np.bool_)
    sigma_buckets: Dict[int, List[np.ndarray]] = {}

    # Seeds, phase A: every still-reachable dropped pair, in drop order.
    seeds_a = drop[wd_flat[drop] != -1]
    scheduled[seeds_a] = True
    for lvl, members in group_by_level(
        seeds_a, wd_flat[seeds_a].astype(np.int64)
    ):
        sigma_buckets.setdefault(lvl, []).append(members)

    # Seeds, phase B: surviving children that lost a dropped predecessor.
    # The scalar loop runs phase A to completion first, so phase-B chunks
    # append after phase-A chunks at every level.
    positions, counts = slice_positions(indptr, ds)
    if positions.size:
        rep = np.repeat(np.arange(drop.size, dtype=np.int64), counts)
        kpid = dk[rep] * n + indices[positions]
        lost = ~drop_mask[kpid] & (
            od_flat[kpid] == od_flat[drop][rep] + 1
        )
        candidates = kpid[lost]
        candidates = candidates[~scheduled[candidates]]
        seeds_b = first_occurrence(candidates, pair_first)
        if seeds_b.size:
            scheduled[seeds_b] = True
            for lvl, members in group_by_level(
                seeds_b, wd_flat[seeds_b].astype(np.int64)
            ):
                sigma_buckets.setdefault(lvl, []).append(members)

    tri_k: List[np.ndarray] = []
    tri_s: List[np.ndarray] = []
    tri_l: List[np.ndarray] = []
    if sigma_buckets:
        level = min(sigma_buckets)
        max_level = max(sigma_buckets)
        while level <= max_level:
            chunks = sigma_buckets.get(level)
            if chunks:
                cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                members = first_occurrence(cand[~aff_flat[cand]], pair_first)
                if members.size:
                    aff_flat[members] = True
                    mk = members // n
                    ms = members - mk * n
                    tri_k.append(mk)
                    tri_s.append(ms)
                    tri_l.append(
                        np.full(members.size, level, dtype=np.int64)
                    )

                    # Sigma recount from parents one level up (all final).
                    positions, counts = slice_positions(in_indptr, ms)
                    totals = np.zeros(members.size, dtype=np.int64)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(members.size, dtype=np.int64), counts
                        )
                        ppid = mk[rep] * n + in_indices[positions]
                        parent_distance = wd_flat[ppid]
                        parent_mask = (parent_distance != -1) & (
                            parent_distance + 1 == level
                        )
                        if parent_mask.any():
                            np.add.at(
                                totals,
                                rep[parent_mask],
                                ws_flat[ppid[parent_mask]],
                            )
                    ws_flat[members] = totals

                    # Children one level down inherit the recount.
                    positions, counts = slice_positions(indptr, ms)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ms.size, dtype=np.int64), counts
                        )
                        kpid = mk[rep] * n + indices[positions]
                        child_distance = wd_flat[kpid]
                        grow = (
                            (child_distance != -1)
                            & (child_distance == level + 1)
                            & ~scheduled[kpid]
                        )
                        kids = first_occurrence(kpid[grow], pair_first)
                        if kids.size:
                            scheduled[kids] = True
                            sigma_buckets.setdefault(level + 1, []).append(
                                kids
                            )
                            max_level = max(max_level, level + 1)
            level += 1

    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(tri_k) if tri_k else empty,
        np.concatenate(tri_s) if tri_s else empty,
        np.concatenate(tri_l) if tri_l else empty,
        disconnected,
    )
