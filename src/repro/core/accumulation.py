"""Shared dependency-accumulation phase of the incremental framework.

Every per-source repair (addition or removal, with or without structural
changes) ends with the same kind of backtracking pass, which the paper
spreads over Algorithms 2-10: walk the affected region of the shortest-path
DAG from the deepest level towards the source and, for every traversed edge,

* add the *new* dependency ``sigma'[v]/sigma'[w] * (1 + delta'[w])`` carried
  by the edge in the new DAG, and
* subtract the *old* dependency ``sigma[v]/sigma[w] * (1 + delta[w])`` it
  carried in the old DAG,

updating the edge betweenness with both terms and folding the net change of
each vertex's dependency into its betweenness score.  Vertices whose
shortest-path data changed (the "affected" set of the
:class:`~repro.core.repair.RepairPlan`) rebuild their dependency from
scratch; vertices on the fringe (ancestors of the affected region) only
receive corrections.

This module implements that pass once, generically, instead of once per
case; the specialised search phases guarantee the two invariants it relies
on:

1. the affected set is downward-closed in the new DAG (every new-DAG child
   of an affected vertex is affected), so a from-scratch dependency is fed by
   all of its children;
2. every affected vertex is enqueued in the level queues at its new distance.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.core.flat import (
    FlatBatchState,
    first_occurrence,
    group_by_level,
    merge_order,
    slice_positions,
)
from repro.core.repair import RepairPlan
from repro.graph.graph import Graph
from repro.types import Edge, EdgeScores, Vertex, VertexScores


@dataclass
class AccumulationResult:
    """Output of the dependency-accumulation phase for one source.

    ``new_delta`` holds the updated dependency of every vertex whose
    dependency changed (affected vertices and the fringe above them);
    ``vertices_touched`` counts them, which the experiment harness uses as a
    proxy for the amount of work done per source.
    """

    new_delta: Dict[Vertex, float] = field(default_factory=dict)
    vertices_touched: int = 0


def accumulate_dependencies(
    graph: Graph,
    source: Vertex,
    data: SourceData,
    plan: RepairPlan,
    vertex_scores: VertexScores,
    edge_scores: EdgeScores,
    edge_key: Callable[[Vertex, Vertex], Edge],
    excluded_old_edge: Optional[Tuple[Vertex, Vertex]] = None,
) -> AccumulationResult:
    """Run the dependency accumulation for one source and fold in the scores.

    Parameters
    ----------
    graph:
        The graph *after* the update.
    source:
        The source whose betweenness data is being repaired.
    data:
        The old ``BD[source]`` (distances, sigmas, dependencies before the
        update).
    plan:
        Output of the search phase: affected vertices, their new distances /
        shortest-path counts, level queues, disconnections and, for removals,
        the dependency formerly carried by the removed edge.
    vertex_scores, edge_scores:
        Global score dictionaries, mutated in place with the per-source
        corrections.
    edge_key:
        Canonicalisation function for edge-score keys.
    excluded_old_edge:
        For additions, the newly added edge: although its endpoints satisfied
        the old parent/child distance relation when ``dd == 1``, the edge did
        not exist before the update, so it must not receive an old-dependency
        subtraction.
    """
    if graph.directed:
        # The fused ±-sweep below relies on an undirected rigidity: adjacent
        # vertices' distances differ by at most one, so a fringe ancestor is
        # always touched before the descending level loop passes its level.
        # On a directed graph an old-DAG parent can keep its distance while
        # its child drops arbitrarily far, so the directed path separates
        # the flows instead (see :func:`_accumulate_directed`).
        return _accumulate_directed(
            graph=graph,
            source=source,
            data=data,
            plan=plan,
            vertex_scores=vertex_scores,
            edge_scores=edge_scores,
            edge_key=edge_key,
            excluded_old_edge=excluded_old_edge,
        )
    old_distance = data.distance
    old_sigma = data.sigma
    old_delta = data.delta
    new_distance = plan.new_distance
    new_sigma = plan.new_sigma
    affected = plan.affected
    disconnected: FrozenSet[Vertex] = frozenset(plan.disconnected)

    def dist_new(vertex: Vertex) -> Optional[int]:
        if vertex in disconnected:
            return None
        found = new_distance.get(vertex)
        if found is not None:
            return found
        return old_distance.get(vertex)

    def sig_new(vertex: Vertex) -> int:
        found = new_sigma.get(vertex)
        if found is not None:
            return found
        return old_sigma.get(vertex, 0)

    excluded: FrozenSet[Vertex] = frozenset(excluded_old_edge or ())

    # Level queues: start from the plan's affected vertices; fringe vertices
    # are appended as they are touched.  Affected vertices rebuild their
    # dependency from scratch, fringe vertices start from their old value.
    buckets: Dict[int, List[Vertex]] = {
        level: list(vertices) for level, vertices in plan.level_queues.items()
    }
    new_delta: Dict[Vertex, float] = {vertex: 0.0 for vertex in affected}

    def touch(vertex: Vertex) -> None:
        """Start tracking a fringe vertex (ancestor of the affected region)."""
        if vertex in new_delta:
            return
        new_delta[vertex] = old_delta.get(vertex, 0.0)
        level = dist_new(vertex)
        if level is not None:
            buckets.setdefault(level, []).append(vertex)

    # Removal seeding: the removed edge (high, low) no longer exists, so the
    # dependency it carried must be subtracted from ``high`` explicitly and
    # propagated upwards from there (Alg. 2 lines 11-13, Alg. 7 line 16).
    # The same dependency is subtracted from the edge's own score entry:
    # after every source is processed the entry nets out to ~0 and is either
    # dropped with the edge, or — when the edge reappears later in a batch —
    # becomes the clean base the re-addition accumulates onto.
    if plan.removed_edge_dependency is not None and plan.high is not None:
        touch(plan.high)
        new_delta[plan.high] -= plan.removed_edge_dependency
        if plan.low is not None:
            key = edge_key(plan.high, plan.low)
            edge_scores[key] = (
                edge_scores.get(key, 0.0) - plan.removed_edge_dependency
            )

    processed: Set[Vertex] = set()
    max_level = max(buckets) if buckets else 0
    for level in range(max_level, 0, -1):
        queue = buckets.get(level)
        if not queue:
            continue
        index = 0
        while index < len(queue):
            vertex = queue[index]
            index += 1
            if vertex in processed:
                continue
            processed.add(vertex)

            w_dist_new = dist_new(vertex)
            w_dist_old = old_distance.get(vertex)
            w_sigma_new = sig_new(vertex)
            w_sigma_old = old_sigma.get(vertex)
            w_delta_new = new_delta[vertex]
            w_delta_old = old_delta.get(vertex, 0.0)
            is_excluded_child = vertex in excluded

            for neighbor in graph.in_neighbors(vertex):
                n_dist_new = dist_new(neighbor)
                n_dist_old = old_distance.get(neighbor)

                # New shortest-path DAG edge (neighbor -> vertex).
                if (
                    w_dist_new is not None
                    and n_dist_new is not None
                    and n_dist_new + 1 == w_dist_new
                ):
                    contribution = (
                        sig_new(neighbor) / w_sigma_new * (1.0 + w_delta_new)
                    )
                    touch(neighbor)
                    new_delta[neighbor] += contribution
                    key = edge_key(neighbor, vertex)
                    edge_scores[key] = edge_scores.get(key, 0.0) + contribution

                # Old shortest-path DAG edge (neighbor -> vertex): subtract the
                # dependency it used to carry (skipping the newly added edge,
                # which did not exist before the update).
                if (
                    w_dist_old is not None
                    and n_dist_old is not None
                    and n_dist_old + 1 == w_dist_old
                    and not (is_excluded_child and neighbor in excluded)
                ):
                    old_contribution = (
                        old_sigma[neighbor] / w_sigma_old * (1.0 + w_delta_old)
                    )
                    key = edge_key(neighbor, vertex)
                    edge_scores[key] = edge_scores.get(key, 0.0) - old_contribution
                    if neighbor not in affected:
                        touch(neighbor)
                        new_delta[neighbor] -= old_contribution

            if vertex != source:
                vertex_scores[vertex] = (
                    vertex_scores.get(vertex, 0.0) + w_delta_new - w_delta_old
                )

    # Disconnected vertices (removal only): their dependency disappears
    # entirely, as does the dependency carried by every old DAG edge between
    # them (Algorithm 10).  Edges towards the still-reachable part cannot
    # exist: a reachable neighbor would make the vertex reachable.
    for vertex in plan.disconnected:
        w_dist_old = old_distance.get(vertex)
        w_sigma_old = old_sigma.get(vertex)
        w_delta_old = old_delta.get(vertex, 0.0)
        if vertex != source:
            vertex_scores[vertex] = vertex_scores.get(vertex, 0.0) - w_delta_old
        if w_dist_old is None:
            continue
        for neighbor in graph.in_neighbors(vertex):
            n_dist_old = old_distance.get(neighbor)
            if n_dist_old is not None and n_dist_old + 1 == w_dist_old:
                old_contribution = (
                    old_sigma[neighbor] / w_sigma_old * (1.0 + w_delta_old)
                )
                key = edge_key(neighbor, vertex)
                edge_scores[key] = edge_scores.get(key, 0.0) - old_contribution

    return AccumulationResult(
        new_delta=new_delta, vertices_touched=len(new_delta)
    )


def _accumulate_directed(
    graph: Graph,
    source: Vertex,
    data: SourceData,
    plan: RepairPlan,
    vertex_scores: VertexScores,
    edge_scores: EdgeScores,
    edge_key: Callable[[Vertex, Vertex], Edge],
    excluded_old_edge: Optional[Tuple[Vertex, Vertex]] = None,
) -> AccumulationResult:
    """Dependency accumulation for directed graphs (three clean phases).

    The old and new dependency flows have *different* topological orders on
    a digraph (a vertex's new distance can drop far below an unchanged
    old-DAG parent's), so instead of fusing them into one sweep this path:

    1. closes the repaired region upward — every old- or new-DAG in-parent
       of a vertex whose data changed joins the region, transitively up to
       the source (the same set of vertices the fused sweep would touch);
    2. recomputes the region's *new* dependencies from scratch by
       descending new distance (``delta'[w] = sum over new-DAG children c
       of sigma'[w]/sigma'[c] * (1 + delta'[c])``, children outside the
       region contributing their stored, unchanged dependency) — a pure
       function of the new DAG, needing no old-flow interleaving;
    3. folds the score corrections in: per region vertex the dependency
       difference, per in-edge the new contribution added and the old one
       (a pure function of the *stored* old values, hence order-free)
       subtracted.

    The removed shortest-path edge, being absent from the graph, gets its
    explicit subtraction exactly as in the fused sweep; the freshly added
    edge is excluded from old-flow subtraction by orientation.
    """
    old_distance = data.distance
    old_sigma = data.sigma
    old_delta = data.delta
    new_distance = plan.new_distance
    new_sigma = plan.new_sigma
    disconnected: FrozenSet[Vertex] = frozenset(plan.disconnected)

    def dist_new(vertex: Vertex) -> Optional[int]:
        if vertex in disconnected:
            return None
        found = new_distance.get(vertex)
        if found is not None:
            return found
        return old_distance.get(vertex)

    def sig_new(vertex: Vertex) -> int:
        found = new_sigma.get(vertex)
        if found is not None:
            return found
        return old_sigma.get(vertex, 0)

    # ------------------------------------------------------------------ #
    # Phase 1: upward closure of the changed region.
    # ------------------------------------------------------------------ #
    region: Dict[Vertex, None] = {}  # insertion-ordered set, deterministic
    frontier: List[Vertex] = []

    def join(vertex: Vertex) -> None:
        if vertex not in region:
            region[vertex] = None
            frontier.append(vertex)

    for vertex in plan.affected:
        join(vertex)
    for vertex in plan.disconnected:
        join(vertex)
    if plan.removed_edge_dependency is not None and plan.high is not None:
        # The removed edge's tail lost a child contribution; the edge itself
        # is gone from the graph, so the closure scan below cannot find it.
        join(plan.high)
    cursor = 0
    while cursor < len(frontier):
        vertex = frontier[cursor]
        cursor += 1
        w_dist_new = dist_new(vertex)
        w_dist_old = old_distance.get(vertex)
        for parent in graph.in_neighbors(vertex):
            p_dist_new = dist_new(parent) if w_dist_new is not None else None
            if p_dist_new is not None and p_dist_new + 1 == w_dist_new:
                join(parent)
                continue
            if w_dist_old is None:
                continue
            p_dist_old = old_distance.get(parent)
            if p_dist_old is not None and p_dist_old + 1 == w_dist_old:
                join(parent)

    # ------------------------------------------------------------------ #
    # Phase 2: recompute new dependencies by descending new distance.
    # ------------------------------------------------------------------ #
    buckets: Dict[int, List[Vertex]] = {}
    for vertex in region:
        level = dist_new(vertex)
        if level is not None:
            buckets.setdefault(level, []).append(vertex)
    new_delta: Dict[Vertex, float] = {}
    for level in sorted(buckets, reverse=True):
        for vertex in buckets[level]:
            total = 0.0
            vertex_sigma = sig_new(vertex)
            for child in graph.out_neighbors(vertex):
                if dist_new(child) != level + 1:
                    continue
                child_delta = (
                    new_delta[child]
                    if child in new_delta
                    else old_delta.get(child, 0.0)
                )
                total += vertex_sigma / sig_new(child) * (1.0 + child_delta)
            new_delta[vertex] = total

    # ------------------------------------------------------------------ #
    # Phase 3: fold the corrections into the global scores.
    # ------------------------------------------------------------------ #
    if plan.removed_edge_dependency is not None and plan.high is not None:
        key = edge_key(plan.high, plan.low)
        edge_scores[key] = edge_scores.get(key, 0.0) - plan.removed_edge_dependency

    for vertex in region:
        w_dist_new = dist_new(vertex)
        w_dist_old = old_distance.get(vertex)
        w_delta_new = new_delta.get(vertex, 0.0)
        w_delta_old = old_delta.get(vertex, 0.0)
        if vertex != source:
            vertex_scores[vertex] = (
                vertex_scores.get(vertex, 0.0) + w_delta_new - w_delta_old
            )
        for parent in graph.in_neighbors(vertex):
            p_dist_new = dist_new(parent) if w_dist_new is not None else None
            if p_dist_new is not None and p_dist_new + 1 == w_dist_new:
                contribution = (
                    sig_new(parent) / sig_new(vertex) * (1.0 + w_delta_new)
                )
                key = edge_key(parent, vertex)
                edge_scores[key] = edge_scores.get(key, 0.0) + contribution
            if w_dist_old is None or (parent, vertex) == excluded_old_edge:
                continue
            p_dist_old = old_distance.get(parent)
            if p_dist_old is not None and p_dist_old + 1 == w_dist_old:
                old_contribution = (
                    old_sigma[parent] / old_sigma[vertex] * (1.0 + w_delta_old)
                )
                key = edge_key(parent, vertex)
                edge_scores[key] = edge_scores.get(key, 0.0) - old_contribution

    for vertex in plan.disconnected:
        new_delta.pop(vertex, None)
    return AccumulationResult(
        new_delta=new_delta, vertices_touched=len(region)
    )


# --------------------------------------------------------------------------- #
# Cohort (pair-space) variants — the arrays backend
# --------------------------------------------------------------------------- #
class CohortScoreStreams:
    """Deferred write streams for the batch-shared score accumulators.

    The reference (dicts) sweep is *source-outer*: every float that source
    ``s`` contributes to ``vscore`` or an edge score — across all updates
    of the batch — lands before any contribution of a later source.  The
    cohort sweep is update-outer, so instead of writing during the sweep it
    records ``(source ordinal, target, value)`` triples here; nothing
    reads either accumulator mid-batch (registry pops and score reads all
    happen in batch finalization), so applying the streams once at the end
    of the sweep — stably sorted by ordinal, which keeps each source's
    update-then-emission order intact — reproduces the reference float
    sequence per accumulator exactly.
    """

    def __init__(self) -> None:
        self.vs_g: List[np.ndarray] = []
        self.vs_slot: List[np.ndarray] = []
        self.vs_val: List[np.ndarray] = []
        self.es_g: List[np.ndarray] = []
        self.es_id: List[np.ndarray] = []
        self.es_val: List[np.ndarray] = []

    def extend(
        self,
        ordinals: np.ndarray,
        vs_k: List[np.ndarray],
        vs_slot: List[np.ndarray],
        vs_val: List[np.ndarray],
        es_k: List[np.ndarray],
        es_id: List[np.ndarray],
        es_val: List[np.ndarray],
    ) -> None:
        """Adopt one sweep's local-``k`` streams, remapped to ordinals."""
        for part in vs_k:
            self.vs_g.append(ordinals[part])
        self.vs_slot.extend(vs_slot)
        self.vs_val.extend(vs_val)
        for part in es_k:
            self.es_g.append(ordinals[part])
        self.es_id.extend(es_id)
        self.es_val.extend(es_val)

    def flush(self, vscore: np.ndarray, registry) -> None:
        """Apply both streams in source-major (ordinal) order."""
        if self.vs_g:
            g = np.concatenate(self.vs_g)
            order = np.argsort(g, kind="stable")
            np.add.at(
                vscore,
                np.concatenate(self.vs_slot)[order],
                np.concatenate(self.vs_val)[order],
            )
        if self.es_g:
            g = np.concatenate(self.es_g)
            order = np.argsort(g, kind="stable")
            ids = np.concatenate(self.es_id)[order]
            registry.activate_written(ids)
            np.add.at(registry.values, ids, np.concatenate(self.es_val)[order])
        self.vs_g, self.vs_slot, self.vs_val = [], [], []
        self.es_g, self.es_id, self.es_val = [], [], []


def accumulate_cohort(
    state: FlatBatchState,
    work_distance: np.ndarray,
    work_sigma: np.ndarray,
    old_distance: np.ndarray,
    old_sigma: np.ndarray,
    new_delta: np.ndarray,
    old_delta: np.ndarray,
    affected_rows: Optional[np.ndarray],
    sources: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
    ordinals: np.ndarray,
    chunk_k: np.ndarray,
    chunk_s: np.ndarray,
    chunk_l: np.ndarray,
    rem_k: np.ndarray,
    rem_red: np.ndarray,
    rem_rid: np.ndarray,
    disc_k: np.ndarray,
    disc_s: np.ndarray,
    streams: CohortScoreStreams,
    exclude_new_edge: bool,
    pair_first: np.ndarray,
) -> np.ndarray:
    """Dependency accumulation for a whole cohort of sources at once.

    All jobs repair the *same* update, so they share one compiled
    snapshot; the sweep runs in (job ordinal ``k``, vertex slot) pair
    space, which multiplies chunk widths by the cohort size and amortises
    the per-chunk numpy dispatch cost that would dominate on small
    per-source regions.

    Bit-identity with :func:`accumulate_dependencies` run source by source
    in batch order holds per float accumulator:

    * chunks are processed whole because no dependency write can land on a
      *member of the chunk that emits it*: new-DAG writes target parents
      one level up; old-DAG writes target non-affected old-parents, which
      by the undirected rigidity sit at the same or a lower new level and
      are never chunk-mates (plan chunks are all-affected, fringe chunks
      all-fringe);
    * per-source ``nd`` cells live in disjoint rows of ``new_delta``, and
      within a row the scatter order is the scalar visitation order: each
      ``k``'s subsequence of the merged chunk deque is its own FIFO level
      queue, flattened edges follow adjacency order, fringe admission
      order is emission order, and each edge's new contribution precedes
      its old one (:func:`~repro.core.flat.merge_order` puts the selected
      new-DAG entries before old-DAG entries of the same position);
    * the shared ``vscore`` / edge-score arrays are never *read* during the
      batch sweep, so their writes are recorded into ``streams`` (see
      :class:`CohortScoreStreams`) and applied source-major after the whole
      batch — the reference loop-nest order;
    * every recorded value is computed from the same operands with the same
      ops as the scalar loop (``+(-x)`` replacing ``-x`` is bitwise
      identical in IEEE-754).

    The parent tests are exact without the scalar loop's ``None`` guards:
    a chunk member sits on new level ``level >= 1`` and is never the
    source (only the source has distance 0, and level 0 is never swept),
    so a new-DAG parent is exactly ``d'[p] == level - 1`` (``-1`` cannot
    equal ``level - 1 >= 0``) and an old-DAG parent exactly ``d[p] + 1 ==
    d[w]`` (an unreachable ``d[w] = -1`` would need ``d[p] = -2``, and an
    unreachable ``d[p] = -1`` would need ``d[w] = 0``, the source).  The
    new-edge exclusion, edge-id gathers and job lookups then run on the
    selected entries only.

    Inputs describe the slab's jobs in stacked form: ``(m, n)`` work
    columns plus pristine pre-update stacks (``old_*``; ``new_delta``
    starts as a copy of ``old_delta`` and is turned into the post-update
    delta rows in place), ``(m,)`` job vectors, the merged plan chunks as
    ``(k, slot, level)`` triples, removal seeds as ``(k, dependency,
    registry id)`` columns, and structural-removal disconnected sets as
    ``(k, slot)`` pair columns in per-job discovery order.  Returns the
    flat pair ids (``k * n + slot``, each once) of every pair whose
    dependency the sweep tracked — the touched set, which contains every
    plan pair; the repaired delta is left in ``new_delta``.
    """
    if state.directed:
        return _accumulate_directed_cohort(
            state,
            work_distance,
            work_sigma,
            old_distance,
            old_sigma,
            new_delta,
            old_delta,
            sources,
            highs,
            lows,
            ordinals,
            chunk_k,
            chunk_s,
            rem_k,
            rem_red,
            rem_rid,
            disc_k,
            disc_s,
            streams,
            exclude_new_edge,
            pair_first,
        )
    n = state.n
    m = len(sources)
    in_indptr = state.in_indptr
    in_indices = state.in_indices
    in_edge_ids = state.in_edge_ids
    wd_flat = work_distance.reshape(-1)
    ws_flat = work_sigma.reshape(-1)
    od_flat = old_distance.reshape(-1)
    os_flat = old_sigma.reshape(-1)
    nd_flat = new_delta.reshape(-1)
    odel_flat = old_delta.reshape(-1)
    aff_flat = affected_rows.reshape(-1)

    tracked = np.zeros(m * n, dtype=np.bool_)
    processed = np.zeros(m * n, dtype=np.bool_)
    # Every pair the moment it turns tracked, each exactly once.
    touched: List[np.ndarray] = []

    # Plan chunks, merged per level: each k's members arrive in its own
    # enqueue order, so its subsequence of every bucket equals the level
    # queue the scalar loop would hold for that source.
    buckets: Dict[int, Deque[Tuple[np.ndarray, np.ndarray]]] = {}
    if chunk_k.size:
        chunk_pid = chunk_k * n + chunk_s
        nd_flat[chunk_pid] = 0.0
        tracked[chunk_pid] = True
        touched.append(chunk_pid)
        for level, sel in group_by_level(
            np.arange(chunk_k.size, dtype=np.int64), chunk_l
        ):
            buckets.setdefault(level, deque()).append(
                (chunk_k[sel], chunk_s[sel])
            )

    # Deferred shared-score streams: (k, target, value).
    es_k: List[np.ndarray] = []
    es_id: List[np.ndarray] = []
    es_val: List[np.ndarray] = []
    vs_k: List[np.ndarray] = []
    vs_slot: List[np.ndarray] = []
    vs_val: List[np.ndarray] = []

    # Removal seeding, merged across the cohort (Alg. 2 lines 11-13): one
    # seed chunk per level, appended after the plan chunks like each
    # source's own seed follows its own plan chunks.  Seed pairs are per-job distinct,
    # so the fancy-indexed subtraction has no duplicate targets.
    if rem_k.size:
        rh = highs[rem_k]
        rem_pid = rem_k * n + rh
        fresh_sel = ~tracked[rem_pid]
        tracked[rem_pid[fresh_sel]] = True
        touched.append(rem_pid[fresh_sel])
        seed_sel = fresh_sel & (wd_flat[rem_pid] != -1)
        sk = rem_k[seed_sel]
        sh = rh[seed_sel]
        for lvl, sel in group_by_level(
            np.arange(sk.size, dtype=np.int64),
            wd_flat[rem_pid[seed_sel]].astype(np.int64),
        ):
            buckets.setdefault(lvl, deque()).append((sk[sel], sh[sel]))
        nd_flat[rem_pid] -= rem_red
        es_k.append(rem_k)
        es_id.append(rem_rid)
        es_val.append(-rem_red)

    max_level = max(buckets) if buckets else 0
    for level in range(max_level, 0, -1):
        queue = buckets.get(level)
        if not queue:
            continue
        while queue:
            kc, chunk = queue.popleft()
            mpid = kc * n + chunk
            alive = ~processed[mpid]
            if not alive.all():
                kc = kc[alive]
                chunk = chunk[alive]
                mpid = mpid[alive]
            if chunk.size == 0:
                continue
            processed[mpid] = True

            wdo = od_flat[mpid]
            deln = nd_flat[mpid]
            delo = np.where(wdo != -1, odel_flat[mpid], 0.0)

            positions, counts = slice_positions(in_indptr, chunk)
            if positions.size:
                # Exact parent tests (see the docstring): one gather and one
                # comparison per entry and DAG; everything else runs on the
                # selected entries, whose member is found by rank.
                ppid = np.repeat(kc * n, counts) + in_indices[positions]
                i_new = np.flatnonzero(wd_flat[ppid] == level - 1)
                i_old = np.flatnonzero(
                    od_flat[ppid] == np.repeat(wdo - 1, counts)
                )
                eid_old = in_edge_ids[positions[i_old]]
                if exclude_new_edge:
                    # The added edge did not exist before the update, so it
                    # carries no old dependency; it is the only entry with
                    # its registry id.
                    kept = eid_old != state.edge_id
                    i_old = i_old[kept]
                    eid_old = eid_old[kept]
                ends = np.cumsum(counts)
                rn = np.searchsorted(ends, i_new, side="right")
                ro = np.searchsorted(ends, i_old, side="right")
                po = ppid[i_old]
                c_new = ws_flat[ppid[i_new]] / ws_flat[mpid[rn]] * (1.0 + deln[rn])
                c_old = os_flat[po] / os_flat[mpid[ro]] * (1.0 + delo[ro])

                # One merge orders both streams as the scalar loop emits
                # them: entries ascending, an entry's new contribution
                # before its old one.  Edge scores take every contribution;
                # a parent's dependency all but the old ones of affected
                # parents, which rebuild theirs from scratch.
                order = merge_order(i_new, i_old)
                target = np.concatenate((ppid[i_new], po))[order]
                values = np.concatenate((c_new, -c_old))[order]
                es_k.append(target // n)
                es_id.append(
                    np.concatenate((in_edge_ids[positions[i_new]], eid_old))[order]
                )
                es_val.append(values)
                nd_keep = np.concatenate(
                    (np.ones(i_new.size, dtype=np.bool_), ~aff_flat[po])
                )[order]
                nd_pid = target[nd_keep]
                nd_values = values[nd_keep]

                fresh = first_occurrence(nd_pid[~tracked[nd_pid]], pair_first)
                if fresh.size:
                    tracked[fresh] = True
                    touched.append(fresh)
                    fk = fresh // n
                    fs = fresh - fk * n
                    flvl = wd_flat[fresh].astype(np.int64)
                    for lvl, sel in group_by_level(
                        np.arange(fk.size, dtype=np.int64), flvl
                    ):
                        pair_chunk = (fk[sel], fs[sel])
                        if lvl == level:
                            queue.append(pair_chunk)
                        else:
                            buckets.setdefault(lvl, deque()).append(pair_chunk)
                np.add.at(nd_flat, nd_pid, nd_values)

            # Two deferred single adds per member — +new then -old — replay
            # the scalar (score + new) - old association exactly.
            keep = chunk != sources[kc]
            tk = kc[keep]
            ts = chunk[keep]
            vs_k.append(np.repeat(tk, 2))
            vs_slot.append(np.repeat(ts, 2))
            vals = np.empty(ts.size * 2, dtype=np.float64)
            vals[0::2] = deln[keep]
            vals[1::2] = -delo[keep]
            vs_val.append(vals)

    # Disconnected tails, merged across the cohort (Algorithm 10): each
    # k's entries keep their discovery order, and the ordinal-stable flush
    # puts them after that k's sweep entries like the scalar epilogue.
    if disc_k.size:
        dpid = disc_k * n + disc_s
        wdo = od_flat[dpid]
        delo = np.where(wdo != -1, odel_flat[dpid], 0.0)
        keep = disc_s != sources[disc_k]
        vs_k.append(disc_k[keep])
        vs_slot.append(disc_s[keep])
        vs_val.append(-delo[keep])
        positions, counts = slice_positions(in_indptr, disc_s)
        if positions.size:
            par = in_indices[positions]
            rep = np.repeat(np.arange(disc_s.size, dtype=np.int64), counts)
            ppid = disc_k[rep] * n + par
            pdo = od_flat[ppid]
            old_e = (wdo[rep] != -1) & (pdo != -1) & (pdo + 1 == wdo[rep])
            i_old = np.flatnonzero(old_e)
            c_old = (
                os_flat[ppid[i_old]]
                / os_flat[dpid][rep[i_old]]
                * (1.0 + delo[rep[i_old]])
            )
            es_k.append(disc_k[rep[i_old]])
            es_id.append(in_edge_ids[positions[i_old]])
            es_val.append(-c_old)

    streams.extend(ordinals, vs_k, vs_slot, vs_val, es_k, es_id, es_val)
    if not touched:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(touched)


def _accumulate_directed_cohort(
    state: FlatBatchState,
    work_distance: np.ndarray,
    work_sigma: np.ndarray,
    old_distance: np.ndarray,
    old_sigma: np.ndarray,
    new_delta: np.ndarray,
    old_delta: np.ndarray,
    sources: np.ndarray,
    highs: np.ndarray,
    lows: np.ndarray,
    ordinals: np.ndarray,
    chunk_k: np.ndarray,
    chunk_s: np.ndarray,
    rem_k: np.ndarray,
    rem_red: np.ndarray,
    rem_rid: np.ndarray,
    disc_k: np.ndarray,
    disc_s: np.ndarray,
    streams: CohortScoreStreams,
    exclude_new_edge: bool,
    pair_first: np.ndarray,
) -> np.ndarray:
    """Cohort variant of :func:`_accumulate_directed` (three order-free phases).

    Region membership, not order, determines every result here: phase 2 is
    a pure function of the new DAG evaluated level-synchronously, and phase
    3 touches each vertex- and edge-accumulator from exactly one region
    vertex's scan (new contribution before old, like the scalar loop) — so
    the scalar's set-iteration seed order need not be reproduced.  The
    pair-space lift therefore only has to preserve *per-accumulator*
    sequences: the phase-2 level loop runs over global absolute levels (a
    per-k no-op on levels a region lacks), and phase 3 emits all new
    contributions before all old ones so the ordinal-stable flush yields
    the scalar new-before-old order per edge id within each source.
    Returns the region's pair ids — the touched set, seeded with every
    plan pair.
    """
    n = state.n
    m = len(sources)
    indptr, indices = state.indptr, state.indices
    in_indptr = state.in_indptr
    in_indices = state.in_indices
    in_edge_ids = state.in_edge_ids
    wd_flat = work_distance.reshape(-1)
    ws_flat = work_sigma.reshape(-1)
    od_flat = old_distance.reshape(-1)
    os_flat = old_sigma.reshape(-1)
    nd_flat = new_delta.reshape(-1)
    odel_flat = old_delta.reshape(-1)

    # ------------------------------------------------------------------ #
    # Phase 1: upward closure of every job's changed region.
    # ------------------------------------------------------------------ #
    region_mask = np.zeros(m * n, dtype=np.bool_)
    region_chunks: List[np.ndarray] = []
    frontier: Deque[Tuple[np.ndarray, np.ndarray]] = deque()

    def join(cpid: np.ndarray) -> None:
        fresh = first_occurrence(cpid[~region_mask[cpid]], pair_first)
        if fresh.size:
            region_mask[fresh] = True
            region_chunks.append(fresh)
            fk = fresh // n
            frontier.append((fk, fresh - fk * n))

    seed_pids: List[np.ndarray] = [chunk_k * n + chunk_s]
    if disc_k.size:
        seed_pids.append(disc_k * n + disc_s)
    if rem_k.size:
        seed_pids.append(rem_k * n + highs[rem_k])
    join(np.concatenate(seed_pids))
    while frontier:
        fk, fs = frontier.popleft()
        positions, counts = slice_positions(in_indptr, fs)
        if positions.size == 0:
            continue
        rep = np.repeat(np.arange(fs.size, dtype=np.int64), counts)
        fpid = fk * n + fs
        ppid = fk[rep] * n + in_indices[positions]
        wdn = wd_flat[fpid][rep]
        wdo = od_flat[fpid][rep]
        pdn = wd_flat[ppid]
        pdo = od_flat[ppid]
        joins = ((wdn != -1) & (pdn != -1) & (pdn + 1 == wdn)) | (
            (wdo != -1) & (pdo != -1) & (pdo + 1 == wdo)
        )
        join(ppid[joins])
    if region_chunks:
        region_pid = (
            region_chunks[0]
            if len(region_chunks) == 1
            else np.concatenate(region_chunks)
        )
    else:
        region_pid = np.empty(0, dtype=np.int64)
    region_k = region_pid // n
    region_s = region_pid - region_k * n

    # ------------------------------------------------------------------ #
    # Phase 2: new dependencies by descending (global) new distance.
    # ------------------------------------------------------------------ #
    rwd = wd_flat[region_pid]
    sel = rwd != -1
    reach_pid = region_pid[sel]
    reach_levels = rwd[sel].astype(np.int64)
    if reach_pid.size:
        for level in np.unique(reach_levels)[::-1]:
            msel = reach_levels == level
            mpid = reach_pid[msel]
            mk = mpid // n
            ms = mpid - mk * n
            segments = np.zeros(mpid.size, dtype=np.float64)
            positions, counts = slice_positions(indptr, ms)
            if positions.size:
                rep = np.repeat(np.arange(ms.size, dtype=np.int64), counts)
                kpid = mk[rep] * n + indices[positions]
                child_mask = wd_flat[kpid] == level + 1
                if child_mask.any():
                    terms = (
                        ws_flat[mpid][rep[child_mask]]
                        / ws_flat[kpid[child_mask]]
                        * (1.0 + nd_flat[kpid[child_mask]])
                    )
                    np.add.at(segments, rep[child_mask], terms)
            nd_flat[mpid] = segments

    # ------------------------------------------------------------------ #
    # Phase 3: fold the corrections into the global scores (deferred).
    # ------------------------------------------------------------------ #
    es_k: List[np.ndarray] = []
    es_id: List[np.ndarray] = []
    es_val: List[np.ndarray] = []
    vs_k: List[np.ndarray] = []
    vs_slot: List[np.ndarray] = []
    vs_val: List[np.ndarray] = []

    if rem_k.size:
        es_k.append(rem_k)
        es_id.append(rem_rid)
        es_val.append(-rem_red)

    if region_pid.size:
        wdn_v = wd_flat[region_pid]
        wdo_v = od_flat[region_pid]
        wdeln = np.where(wdn_v != -1, nd_flat[region_pid], 0.0)
        wdelo = np.where(wdo_v != -1, odel_flat[region_pid], 0.0)
        keep = region_s != sources[region_k]
        tk = region_k[keep]
        ts = region_s[keep]
        vs_k.append(np.repeat(tk, 2))
        vs_slot.append(np.repeat(ts, 2))
        vals = np.empty(ts.size * 2, dtype=np.float64)
        vals[0::2] = wdeln[keep]
        vals[1::2] = -wdelo[keep]
        vs_val.append(vals)

        positions, counts = slice_positions(in_indptr, region_s)
        if positions.size:
            par = in_indices[positions]
            eid = in_edge_ids[positions]
            rep = np.repeat(np.arange(region_s.size, dtype=np.int64), counts)
            krep = region_k[rep]
            ppid = krep * n + par
            pdn = wd_flat[ppid]
            pdo = od_flat[ppid]
            wdn_r = wdn_v[rep]
            wdo_r = wdo_v[rep]
            new_p = (wdn_r != -1) & (pdn != -1) & (pdn + 1 == wdn_r)
            old_p = (wdo_r != -1) & (pdo != -1) & (pdo + 1 == wdo_r)
            if exclude_new_edge:
                old_p &= ~(
                    (par == highs[krep]) & (region_s[rep] == lows[krep])
                )
            i_new = np.flatnonzero(new_p)
            i_old = np.flatnonzero(old_p)
            c_new = (
                ws_flat[ppid[i_new]]
                / ws_flat[region_pid][rep[i_new]]
                * (1.0 + wdeln[rep[i_new]])
            )
            c_old = (
                os_flat[ppid[i_old]]
                / os_flat[region_pid][rep[i_old]]
                * (1.0 + wdelo[rep[i_old]])
            )
            # All news before all olds: after the ordinal-stable flush each
            # job's stream is its seed, then its news, then its olds — and
            # each directed edge id is scanned from exactly one region
            # vertex of a job, so per-accumulator order matches the scalar
            # scatters.
            es_k.append(krep[i_new])
            es_id.append(eid[i_new])
            es_val.append(c_new)
            es_k.append(krep[i_old])
            es_id.append(eid[i_old])
            es_val.append(-c_old)

    streams.extend(ordinals, vs_k, vs_slot, vs_val, es_k, es_id, es_val)
    return region_pid
