"""Search-phase repair for edge additions (Algorithms 2 and 4 of the paper).

Both routines operate per source ``s`` on the stored betweenness data
``BD[s]`` and return a :class:`~repro.core.repair.RepairPlan` describing the
vertices whose distance / shortest-path count changed, which the shared
dependency-accumulation phase then turns into betweenness corrections.

The graph passed in must already contain the newly added edge.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set

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


def repair_addition_same_level(
    graph: Graph, data: SourceData, high: Vertex, low: Vertex
) -> RepairPlan:
    """Repair after adding ``(high, low)`` when ``d[low] == d[high] + 1``.

    No distances change (Algorithm 2): the new edge only creates additional
    shortest paths through ``high`` into the sub-DAG rooted at ``low``.  The
    traversal visits exactly that sub-DAG, updating sigma along the way.
    """
    plan = RepairPlan(high=high, low=low)
    distance = data.distance
    sigma = data.sigma

    plan.new_sigma[low] = sigma[low] + sigma[high]
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


def repair_addition_structural(
    graph: Graph, data: SourceData, high: Vertex, low: Vertex
) -> RepairPlan:
    """Repair after adding ``(high, low)`` when ``uL`` rises one or more levels.

    This is Algorithm 4 of the paper: distances in the sub-DAG reachable from
    ``low`` may shrink, new shortest paths appear and old ones disappear.
    The repair is a level-ordered (bucketed) traversal rooted at ``low``:

    * ``low`` is pulled up to ``d[high] + 1``;
    * every vertex whose distance shrinks is settled in increasing order of
      its *new* distance, so its predecessors are final when its sigma is
      recomputed by scanning in-neighbors;
    * every vertex that keeps its distance but is adjacent (one level below)
      to a settled vertex is also re-processed, because its sigma changes.

    The previously-disconnected case (``low`` unreachable before the update)
    needs no special handling: unreachable vertices simply have no stored
    distance and are settled as the traversal reaches them.
    """
    plan = RepairPlan(high=high, low=low)
    old_distance = data.distance
    old_sigma = data.sigma

    new_distance = plan.new_distance
    new_sigma = plan.new_sigma

    def current_distance(vertex: Vertex) -> int:
        found = new_distance.get(vertex)
        if found is not None:
            return found
        return old_distance.get(vertex)

    start_level = old_distance[high] + 1
    new_distance[low] = start_level

    buckets: Dict[int, List[Vertex]] = {start_level: [low]}
    scheduled: Set[Vertex] = {low}
    level = start_level
    max_level = start_level
    while level <= max_level:
        queue = buckets.get(level, [])
        index = 0
        while index < len(queue):
            vertex = queue[index]
            index += 1
            if vertex in plan.affected:
                continue
            if current_distance(vertex) != level:
                # Stale bucket entry: the vertex was settled at a smaller
                # distance by an earlier level.
                continue
            plan.affected.add(vertex)
            plan.enqueue(vertex, level)

            # Recompute sigma from scratch by scanning predecessors at the
            # new level - 1 (they are already final: smaller levels have been
            # fully processed).
            total = 0
            for neighbor in graph.in_neighbors(vertex):
                neighbor_distance = current_distance(neighbor)
                if neighbor_distance is not None and neighbor_distance + 1 == level:
                    total += new_sigma.get(neighbor, old_sigma.get(neighbor, 0))
            new_sigma[vertex] = total

            # Relax out-neighbors: either their distance shrinks, or they sit
            # exactly one level below and their sigma changes.
            for neighbor in graph.out_neighbors(vertex):
                neighbor_distance = current_distance(neighbor)
                if neighbor_distance is None or neighbor_distance > level + 1:
                    new_distance[neighbor] = level + 1
                    buckets.setdefault(level + 1, []).append(neighbor)
                    scheduled.add(neighbor)
                    max_level = max(max_level, level + 1)
                elif neighbor_distance == level + 1 and neighbor not in plan.affected:
                    if neighbor not in scheduled:
                        buckets.setdefault(level + 1, []).append(neighbor)
                        scheduled.add(neighbor)
                        max_level = max(max_level, level + 1)
        level += 1

    # Distances that did not actually change must not be reported as changed
    # (keeps the accumulation's old/new DAG tests exact).
    for vertex in list(new_distance):
        if old_distance.get(vertex) == new_distance[vertex]:
            del new_distance[vertex]
    return plan


# --------------------------------------------------------------------------- #
# Cohort (pair-space) variants — the arrays backend
# --------------------------------------------------------------------------- #
def repair_same_level_cohort(
    state: FlatBatchState,
    ks: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
    sign: int,
    old_distance: np.ndarray,
    old_sigma: np.ndarray,
    work_sigma: np.ndarray,
    affected: np.ndarray,
    pair_first: np.ndarray,
) -> tuple:
    """The two ``dd == 1`` repairs (Algorithm 2) for a whole cohort in pair space.

    Shared by addition (``sign=+1``) and removal (``sign=-1``): no distance
    changes, only path counts in the sub-DAG under ``low`` shift by the
    paths through ``high``.  The scalar FIFO over that sub-DAG is strictly
    level-aligned (every queue edge descends exactly one level), so a
    frontier expansion discovers the same vertices in the same order and
    the integer sigma increments land identically.

    All jobs repair the same update against the same compiled snapshot, so
    their per-source sub-DAG walks share frontier expansions: the frontier
    holds ``(job ordinal k, vertex slot)`` pairs and one hop advances every
    job by one (job-relative) level at once.  All updates are integer sigma
    arithmetic on per-job rows of ``work_sigma``, every job's pair
    subsequence of each frontier is its own scalar frontier
    (first-occurrence order is preserved because frontiers stay k-grouped),
    and jobs whose scalar loop would have exited simply stop contributing
    pairs.

    ``ks`` holds the jobs' slab ordinals; ``highs``/``lows`` are the jobs'
    edge endpoints *aligned with ks* (already sliced).  ``old_distance`` /
    ``old_sigma`` are the slab's pristine pre-update column stacks;
    ``work_sigma`` (int64) and ``affected`` (bool) are the ``(m, n)``
    stacked work columns, mutated in place.  Returns the merged plan
    chunks as ``(k, slot, level)`` triples in discovery order.
    """
    n = state.n
    indptr, indices = state.indptr, state.indices
    od_flat = old_distance.reshape(-1)
    os_flat = old_sigma.reshape(-1)
    ws_flat = work_sigma.reshape(-1)
    aff_flat = affected.reshape(-1)

    low_pids = ks * n + lows
    aff_flat[low_pids] = True
    ws_flat[low_pids] = ws_flat[low_pids] + sign * os_flat[ks * n + highs]
    tri_k: List[np.ndarray] = [ks]
    tri_s: List[np.ndarray] = [lows]
    tri_l: List[np.ndarray] = [od_flat[low_pids].astype(np.int64)]
    kc, fc, fpid = ks, lows, low_pids
    while fc.size:
        positions, counts = slice_positions(indptr, fc)
        if positions.size == 0:
            break
        rep = np.repeat(np.arange(fc.size, dtype=np.int64), counts)
        tpid = kc[rep] * n + indices[positions]
        in_subdag = od_flat[tpid] == od_flat[fpid][rep] + 1
        if not in_subdag.any():
            break
        t_pid = tpid[in_subdag]
        # delta_sigma of the whole frontier is final here: all increments a
        # frontier pair receives were scattered while expanding the
        # previous hop — exactly when the scalar loop pops it.
        delta_sigma = ws_flat[fpid] - os_flat[fpid]
        increments = np.repeat(delta_sigma, counts)[in_subdag]
        fresh = first_occurrence(t_pid[~aff_flat[t_pid]], pair_first)
        np.add.at(ws_flat, t_pid, increments)
        if fresh.size == 0:
            break
        fk = fresh // n
        fs = fresh - fk * n
        aff_flat[fresh] = True
        tri_k.append(fk)
        tri_s.append(fs)
        tri_l.append(od_flat[fresh].astype(np.int64))
        kc, fc, fpid = fk, fs, fresh
    return np.concatenate(tri_k), np.concatenate(tri_s), np.concatenate(tri_l)


def repair_addition_structural_cohort(
    state: FlatBatchState,
    ks: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
    old_distance: np.ndarray,
    work_distance: np.ndarray,
    work_sigma: np.ndarray,
    affected: np.ndarray,
    pair_first: np.ndarray,
) -> tuple:
    """Algorithm 4 for a cohort in pair space: bucketed settle of the shrinking sub-DAG.

    Levels are processed in ascending order as in the scalar routine; within
    a level the whole bucket is filtered (stale / already-affected entries
    out, first occurrences kept) and settled at once.  Batch processing is
    exact because every per-vertex decision the scalar loop makes at this
    level reads only state that is static across the level: distances of
    parents (settled at smaller levels) and of children (only lowered *to*
    ``level + 1``, never to ``level``), and the scheduled/affected sets are
    consulted in first-occurrence order just as the sequential loop would.

    The settle runs over *absolute* levels shared by every job: each job's
    levels are a contiguous subrange starting at its own ``d[high] + 1``,
    levels a job lacks simply contribute none of its pairs, and every
    per-pair decision (stale test, sigma recount, relax) reads only that
    pair's row — so the merged level loop replays each job's own ascending
    settle exactly.  All arithmetic is integer.

    Arguments follow :func:`repair_same_level_cohort`, plus the stacked
    ``work_distance`` (mutated by the settle).  Returns merged plan chunks
    as ``(k, slot, level)`` triples.
    """
    n = state.n
    indptr, indices = state.indptr, state.indices
    in_indptr, in_indices = state.in_indptr, state.in_indices
    od_flat = old_distance.reshape(-1)
    wd_flat = work_distance.reshape(-1)
    ws_flat = work_sigma.reshape(-1)
    aff_flat = affected.reshape(-1)
    scheduled = np.zeros(work_distance.size, dtype=np.bool_)

    start_levels = od_flat[ks * n + highs].astype(np.int64) + 1
    low_pids = ks * n + lows
    wd_flat[low_pids] = start_levels
    scheduled[low_pids] = True
    buckets: Dict[int, List[np.ndarray]] = {}
    for lvl, members in group_by_level(low_pids, start_levels):
        buckets.setdefault(lvl, []).append(members)

    tri_k: List[np.ndarray] = []
    tri_s: List[np.ndarray] = []
    tri_l: List[np.ndarray] = []
    level = min(buckets)
    max_level = max(buckets)
    while level <= max_level:
        chunks = buckets.get(level)
        if chunks:
            cand = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            keep = (~aff_flat[cand]) & (wd_flat[cand] == level)
            members = first_occurrence(cand[keep], pair_first)
            if members.size:
                aff_flat[members] = True
                mk = members // n
                ms = members - mk * n
                tri_k.append(mk)
                tri_s.append(ms)
                tri_l.append(np.full(members.size, level, dtype=np.int64))

                # Sigma recount from parents one level above (all final).
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

                # Relax out-neighbors: distance shrinks to level + 1, or the
                # neighbor sits exactly one level below and its sigma must be
                # recounted.  Only a child's first encounter can qualify (a
                # relaxation pins its distance to level + 1 and schedules it,
                # after which both branches reject it), so first-occurrence
                # filtering reproduces the sequential append order.
                positions, counts = slice_positions(indptr, ms)
                if positions.size:
                    rep = np.repeat(
                        np.arange(members.size, dtype=np.int64), counts
                    )
                    kpid = mk[rep] * n + indices[positions]
                    kids = first_occurrence(kpid, pair_first)
                    kid_distance = wd_flat[kids]
                    shrink = (kid_distance == -1) | (kid_distance > level + 1)
                    requeue = (
                        (kid_distance == level + 1)
                        & ~aff_flat[kids]
                        & ~scheduled[kids]
                    )
                    appended = kids[shrink | requeue]
                    if appended.size:
                        wd_flat[kids[shrink]] = level + 1
                        scheduled[appended] = True
                        buckets.setdefault(level + 1, []).append(appended)
                        max_level = max(max_level, level + 1)
        level += 1
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(tri_k) if tri_k else empty,
        np.concatenate(tri_s) if tri_s else empty,
        np.concatenate(tri_l) if tri_l else empty,
    )


