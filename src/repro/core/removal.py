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
    AFFECTED,
    DECIDED,
    DROPPED,
    SCHEDULED,
    FlatBatchState,
    PairSpace,
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
    pairs: PairSpace,
    rows: np.ndarray,
    lows: np.ndarray,
) -> np.ndarray:
    """:func:`find_drop_set` for a cohort, in pair space.

    Returns the drop set as pair ids in discovery order — each job's
    subsequence is its scalar drop order — and leaves them marked
    ``DROPPED``.  Per level the batch decision is exact: a candidate's fate
    depends only on the drop status of its parents one level up (all
    decided in earlier levels), and candidate dedup combines the decided
    mark with first-occurrence order — exactly the pop-time ``decided``
    guard of the scalar loop.  Levels are absolute per pair (a job's
    candidates appear only at its own ``d[low] + 1 + hop`` levels), and
    every drop/survive decision reads only the candidate's own row, so the
    merged level loop is exact.  Nothing is written yet, so the live
    distances are the pre-update ones.
    """
    width = pairs.width
    indptr, indices = state.indptr, state.indices
    in_indptr, in_indices = state.in_indptr, state.in_indices
    distance = pairs.distance

    low_pids = rows * width + lows
    pairs.mark(low_pids, DROPPED | DECIDED)
    drop_chunks: List[np.ndarray] = [low_pids]

    # Initial schedule: children of each low one level below (duplicates
    # kept, as the scalar schedule_children appends them).
    positions, counts = slice_positions(indptr, lows)
    if positions.size == 0:
        return low_pids
    rep = np.repeat(np.arange(lows.size, dtype=np.int64), counts)
    cpid = rows[rep] * width + indices[positions]
    seed = cpid[
        (distance[cpid] == distance[low_pids][rep] + 1)
        & ~pairs.has(cpid, DECIDED)
    ]
    if seed.size == 0:
        return low_pids

    buckets: Dict[int, List[np.ndarray]] = {}
    for lvl, members in group_by_level(seed, distance[seed].astype(np.int64)):
        buckets.setdefault(lvl, []).append(members)
    level = min(buckets)
    max_level = max(buckets)
    while level <= max_level:
        chunks = buckets.get(level)
        if chunks:
            cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            members = pairs.first_occurrence(cand[~pairs.has(cand, DECIDED)])
            if members.size:
                pairs.mark_unlogged(members, DECIDED)
                mk = members // width
                ms = members - mk * width
                # A member drops iff no parent one level up survives.
                positions, counts = slice_positions(in_indptr, ms)
                has_survivor = np.zeros(members.size, dtype=np.bool_)
                if positions.size:
                    rep = np.repeat(
                        np.arange(members.size, dtype=np.int64), counts
                    )
                    ppid = mk[rep] * width + in_indices[positions]
                    survivors = (distance[ppid] == level - 1) & ~pairs.has(
                        ppid, DROPPED
                    )
                    if survivors.any():
                        has_survivor[rep[survivors]] = True
                dropped = members[~has_survivor]
                if dropped.size:
                    pairs.mark(dropped, DROPPED)
                    drop_chunks.append(dropped)
                    dk = dropped // width
                    ds = dropped - dk * width
                    positions, counts = slice_positions(indptr, ds)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ds.size, dtype=np.int64), counts
                        )
                        kpid = dk[rep] * width + indices[positions]
                        scheduled = kpid[
                            (distance[kpid] == level + 1)
                            & ~pairs.has(kpid, DECIDED)
                        ]
                        if scheduled.size:
                            buckets.setdefault(level + 1, []).append(scheduled)
                    max_level = max(max_level, level + 1)
        level += 1
    return drop_chunks[0] if len(drop_chunks) == 1 else np.concatenate(drop_chunks)


def repair_removal_structural_cohort(
    state: FlatBatchState,
    pairs: PairSpace,
    rows: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithms 6-10 for a cohort in pair space: drop set, pivot settle, sigma recount.

    Each stage mirrors its scalar counterpart's bucket order; see the
    per-stage comments for why whole-level batching cannot reorder any
    decision the scalar loop makes element by element.  All three stages
    are level-synchronous integer walks whose per-pair decisions read only
    that pair's row, so the merged absolute-level loops replay each job's
    own stages exactly (each job's pair subsequence of every chunk is its
    scalar bucket).  Stage-2 bookkeeping (``tentative`` / ``settled``) is
    kept compact over the drop list: the drop pairs are logged first, in
    drop order, so a drop pair's log position minus the first one is its
    drop position.

    Arguments follow :func:`~repro.core.addition.repair_same_level_cohort`.
    Returns ``(pairs, levels, disconnected)``: the plan chunks and the
    disconnected pair ids in per-job discovery order.
    """
    width = pairs.width
    indptr, indices = state.indptr, state.indices
    in_indptr, in_indices = state.in_indptr, state.in_indices
    distance, sigma = pairs.distance, pairs.sigma

    drop = find_drop_set_cohort(state, pairs, rows, lows)
    dk = drop // width
    ds = drop - dk * width
    old_drop_distance = distance[drop]

    # ------------------------------------------------------------------ #
    # Stage 2: settle new distances of dropped pairs from the pivots.
    # ------------------------------------------------------------------ #
    # Initial tentative distances: best surviving in-neighbor + 1.  A
    # minimum is order-free, so one scatter replaces the scalar scan.
    tentative = np.full(drop.size, _INF, dtype=np.int64)
    positions, counts = slice_positions(in_indptr, ds)
    if positions.size:
        rep = np.repeat(np.arange(drop.size, dtype=np.int64), counts)
        ppid = dk[rep] * width + in_indices[positions]
        ok = ~pairs.has(ppid, DROPPED) & (distance[ppid] != -1)
        if ok.any():
            np.minimum.at(
                tentative, rep[ok], distance[ppid[ok]].astype(np.int64) + 1
            )
    # Every drop pair gets a new distance below, and no pair of these rows
    # was written before, so the drop list is logged whole and in order.
    base = pairs.size
    pairs.touch(drop, distance=True)
    position = pairs.position
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
                cpos = position[cand] - base
                # Stale entries (tentative since lowered) and relax-time
                # duplicates are rejected exactly as at scalar pop time:
                # relaxation never writes a tentative <= level, so the keep
                # mask is static across the level.
                keep = ~settled[cpos] & (tentative[cpos] == level)
                members = pairs.first_occurrence(cand[keep])
                if members.size:
                    settled[position[members] - base] = True
                    distance[members] = level
                    mk = members // width
                    ms = members - mk * width
                    positions, counts = slice_positions(indptr, ms)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ms.size, dtype=np.int64), counts
                        )
                        kpid = mk[rep] * width + indices[positions]
                        # Restrict to drop pairs before touching the compact
                        # stage-2 state (positions are drop positions only
                        # on drop pairs).
                        sub = kpid[pairs.has(kpid, DROPPED)]
                        spos = position[sub] - base
                        relax = ~settled[spos] & (level + 1 < tentative[spos])
                        kids = pairs.first_occurrence(sub[relax])
                        if kids.size:
                            tentative[position[kids] - base] = level + 1
                            buckets.setdefault(level + 1, []).append(kids)
                            max_level = max(max_level, level + 1)
            level += 1

    disconnected = drop[~settled]
    distance[disconnected] = -1

    # ------------------------------------------------------------------ #
    # Stage 3: sigma recount over the affected region, by new distance.
    # ------------------------------------------------------------------ #
    sigma_buckets: Dict[int, List[np.ndarray]] = {}

    # Seeds, phase A: every still-reachable dropped pair, in drop order.
    seeds_a = drop[distance[drop] != -1]
    pairs.mark(seeds_a, SCHEDULED)
    for lvl, members in group_by_level(
        seeds_a, distance[seeds_a].astype(np.int64)
    ):
        sigma_buckets.setdefault(lvl, []).append(members)

    # Seeds, phase B: surviving children that lost a dropped predecessor.
    # The scalar loop runs phase A to completion first, so phase-B chunks
    # append after phase-A chunks at every level.  A surviving pair's
    # distance was not written, so the live plane holds its old one.
    positions, counts = slice_positions(indptr, ds)
    if positions.size:
        rep = np.repeat(np.arange(drop.size, dtype=np.int64), counts)
        kpid = dk[rep] * width + indices[positions]
        lost = ~pairs.has(kpid, DROPPED) & (
            distance[kpid] == old_drop_distance[rep] + 1
        )
        candidates = kpid[lost]
        candidates = candidates[~pairs.has(candidates, SCHEDULED)]
        seeds_b = pairs.first_occurrence(candidates)
        if seeds_b.size:
            pairs.mark(seeds_b, SCHEDULED)
            for lvl, members in group_by_level(
                seeds_b, distance[seeds_b].astype(np.int64)
            ):
                sigma_buckets.setdefault(lvl, []).append(members)

    tri_p: List[np.ndarray] = []
    tri_l: List[np.ndarray] = []
    if sigma_buckets:
        level = min(sigma_buckets)
        max_level = max(sigma_buckets)
        while level <= max_level:
            chunks = sigma_buckets.get(level)
            if chunks:
                cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                members = pairs.first_occurrence(
                    cand[~pairs.has(cand, AFFECTED)]
                )
                if members.size:
                    pairs.mark(members, AFFECTED)
                    mk = members // width
                    ms = members - mk * width
                    tri_p.append(members)
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
                        ppid = mk[rep] * width + in_indices[positions]
                        parent_distance = distance[ppid]
                        parent_mask = (parent_distance != -1) & (
                            parent_distance + 1 == level
                        )
                        if parent_mask.any():
                            np.add.at(
                                totals,
                                rep[parent_mask],
                                sigma[ppid[parent_mask]],
                            )
                    pairs.touch(members)
                    sigma[members] = totals

                    # Children one level down inherit the recount.
                    positions, counts = slice_positions(indptr, ms)
                    if positions.size:
                        rep = np.repeat(
                            np.arange(ms.size, dtype=np.int64), counts
                        )
                        kpid = mk[rep] * width + indices[positions]
                        child_distance = distance[kpid]
                        grow = (
                            (child_distance != -1)
                            & (child_distance == level + 1)
                            & ~pairs.has(kpid, SCHEDULED)
                        )
                        kids = pairs.first_occurrence(kpid[grow])
                        if kids.size:
                            pairs.mark(kids, SCHEDULED)
                            sigma_buckets.setdefault(level + 1, []).append(
                                kids
                            )
                            max_level = max(max_level, level + 1)
            level += 1

    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(tri_p) if tri_p else empty,
        np.concatenate(tri_l) if tri_l else empty,
        disconnected,
    )
