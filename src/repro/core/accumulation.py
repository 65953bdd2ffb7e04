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
    AFFECTED,
    PROCESSED,
    REGION,
    TRACKED,
    FlatBatchState,
    PairSpace,
    group_by_level,
    interleave,
    merge_order,
    scan_entries,
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
        """Adopt one sweep's row-keyed streams, remapped to ordinals
        (``ordinals[row]``)."""
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
    pairs: PairSpace,
    source_of_row: np.ndarray,
    ordinal_of_row: np.ndarray,
    chunk_pid: np.ndarray,
    chunk_l: np.ndarray,
    rem_rows: np.ndarray,
    rem_highs: np.ndarray,
    rem_red: np.ndarray,
    rem_rid: np.ndarray,
    disc_pid: np.ndarray,
    streams: CohortScoreStreams,
    exclude_new_edge: bool,
) -> int:
    """Dependency accumulation for a whole cohort of sources at once.

    All jobs repair the *same* update, so they share one compiled
    snapshot; the sweep runs in pair space (flat ids ``row * width +
    slot`` of the store's matrices, see :class:`~repro.core.flat.\
PairSpace`), which multiplies chunk widths by the cohort size and
    amortises the per-chunk numpy dispatch cost that would dominate on
    small per-source regions.  New values (distance, path count, the
    dependency being rebuilt) are the live store; pre-update values come
    from the undo log at every pair the update wrote.

    Bit-identity with :func:`accumulate_dependencies` run source by source
    in batch order holds per float accumulator:

    * chunks are processed whole because no dependency write can land on a
      *member of the chunk that emits it*: new-DAG writes target parents
      one level up; old-DAG writes target non-affected old-parents, which
      by the undirected rigidity sit at the same or a lower new level and
      are never chunk-mates (plan chunks are all-affected, fringe chunks
      all-fringe);
    * per-source dependency cells live in disjoint rows of the store, and
      within a row the scatter order is the scalar visitation order: each
      row's subsequence of the merged chunk deque is its own FIFO level
      queue, flattened edges follow adjacency order, fringe admission
      order is emission order, and each edge's new contribution precedes
      its old one; an edge-score accumulator takes at most one entry's
      contributions per chunk, so the edge stream needs only new before
      old;
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
    unreachable ``d[p] = -1`` would need ``d[w] = 0``, the source).

    Only the new test runs over every entry; the old one runs by
    exception (:meth:`~repro.core.flat.PairSpace.old_parents`).  At an
    entry whose member kept its level (``d[w] == level``) and whose parent
    is neither ``AFFECTED`` nor ``DROPPED``, ``d[p]`` is the live
    ``d'[p]``, so ``d[p] + 1 == d[w]`` is exactly ``d'[p] == level - 1``.
    The old selection can therefore differ from the new one only at
    entries of moved members (``d[w] == -1`` included) and of moved
    parents, which lie in rows where the update wrote a distance.  The old
    test runs there alone, and where it flips no outcome the new selection
    is the old one.  The new-edge exclusion, edge-id gathers and member
    lookups then run on the selected entries only.

    A parent's dependency takes its contributions in the scalar visitation
    order: entries ascending, each entry's new contribution before its old
    one.  When both DAGs selected the same entries, that sequence is an
    interleave (:func:`~repro.core.flat.interleave`: new, then old where
    kept, entry by entry); otherwise :func:`~repro.core.flat.merge_order`
    merges the two selections, new before old at the same entry.  Either
    way the scalar order is kept, so no float moves.

    Inputs: the row-indexed source slots and batch ordinals of the cohort,
    the merged plan chunks as ``(pair, level)`` columns, removal seeds as
    ``(row, high, dependency, registry id)`` columns, and the
    structural-removal disconnected pairs in per-job discovery order.
    Returns the number of pairs whose dependency the sweep tracked — the
    touched set, which contains every plan pair; the repaired dependencies
    are left in the store.
    """
    if state.directed:
        return _accumulate_directed_cohort(
            state,
            pairs,
            source_of_row,
            ordinal_of_row,
            chunk_pid,
            rem_rows,
            rem_highs,
            rem_red,
            rem_rid,
            disc_pid,
            streams,
            exclude_new_edge,
        )
    width = pairs.width
    in_indptr = state.in_indptr
    in_indices = state.in_indices
    in_edge_ids = state.in_edge_ids
    distance, sigma, delta = pairs.distance, pairs.sigma, pairs.delta
    # Every pair the moment it turns tracked, each exactly once.
    touched = 0

    # Plan chunks, merged per level: each row's members arrive in its own
    # enqueue order, so its subsequence of every bucket equals the level
    # queue the scalar loop would hold for that source.
    buckets: Dict[int, Deque[Tuple[np.ndarray, np.ndarray]]] = {}
    flags = pairs.flags
    if chunk_pid.size:
        pairs.touch(chunk_pid, bits=TRACKED)
        delta[chunk_pid] = 0.0
        touched += chunk_pid.size
        chunk_k = chunk_pid // width
        chunk_s = chunk_pid - chunk_k * width
        for level, sel in group_by_level(
            np.arange(chunk_pid.size, dtype=np.int64), chunk_l
        ):
            buckets.setdefault(level, deque()).append(
                (chunk_k[sel], chunk_s[sel])
            )

    # Deferred shared-score streams: (row, target, value).
    es_k: List[np.ndarray] = []
    es_id: List[np.ndarray] = []
    es_val: List[np.ndarray] = []
    vs_k: List[np.ndarray] = []
    vs_slot: List[np.ndarray] = []
    vs_val: List[np.ndarray] = []

    # Removal seeding, merged across the cohort (Alg. 2 lines 11-13): one
    # seed chunk per level, appended after the plan chunks like each
    # source's own seed follows its own plan chunks.  Seed pairs are
    # per-job distinct, so the fancy-indexed subtraction has no duplicate
    # targets.
    if rem_rows.size:
        rem_pid = rem_rows * width + rem_highs
        fresh_sel = ~pairs.has(rem_pid, TRACKED)
        touched += int(np.count_nonzero(fresh_sel))
        seed_sel = fresh_sel & (distance[rem_pid] != -1)
        sk = rem_rows[seed_sel]
        sh = rem_highs[seed_sel]
        for lvl, sel in group_by_level(
            np.arange(sk.size, dtype=np.int64),
            distance[rem_pid[seed_sel]].astype(np.int64),
        ):
            buckets.setdefault(lvl, deque()).append((sk[sel], sh[sel]))
        pairs.touch(rem_pid, bits=TRACKED)
        delta[rem_pid] -= rem_red
        es_k.append(rem_rows)
        es_id.append(rem_rid)
        es_val.append(-rem_red)

    max_level = max(buckets) if buckets else 0
    for level in range(max_level, 0, -1):
        queue = buckets.get(level)
        if not queue:
            continue
        while queue:
            kc, chunk = queue.popleft()
            mpid = kc * width + chunk
            mflags = flags[mpid]
            alive = (mflags & PROCESSED) == 0
            if not alive.all():
                kc = kc[alive]
                chunk = chunk[alive]
                mpid = mpid[alive]
                mflags = mflags[alive]
            if chunk.size == 0:
                continue
            flags[mpid] = mflags | PROCESSED

            # Members are tracked, hence logged: their old values are the
            # log's.
            mpos = pairs.position[mpid]
            wdo = pairs.log_distance[mpos]
            deln = delta[mpid]
            delo = np.where(wdo != -1, pairs.log_delta[mpos], 0.0)

            positions, member, bounds = scan_entries(in_indptr, chunk)
            if positions.size:
                # Exact parent tests (see the docstring): one gather and one
                # comparison per entry for the new DAG, and the old DAG's
                # test only where it can differ; everything else runs on
                # the selected entries, whose member ``member`` names.
                ppid = (kc * width)[member]
                ppid += in_indices[positions]
                i_new = np.flatnonzero(distance[ppid] == level - 1)
                i_old = pairs.old_parents(
                    ppid, member, bounds, kc, wdo, level, i_new
                )
                rn = member[i_new]
                pn = ppid[i_new]
                nflags = flags[pn]
                eid_new = in_edge_ids[positions[i_new]]
                shared = i_old is i_new
                if shared:
                    ro, po, oflags, eid_old = rn, pn, nflags, eid_new
                else:
                    ro = member[i_old]
                    po = ppid[i_old]
                    oflags = flags[po]
                    eid_old = in_edge_ids[positions[i_old]]
                # Member terms once per member, then one gather per entry.
                c_new = sigma[pn] / sigma[mpid][rn] * (1.0 + deln)[rn]
                c_old = (
                    pairs.old_sigma(po, oflags)
                    / pairs.log_sigma[mpos][ro]
                    * (1.0 + delo)[ro]
                )
                # A parent's dependency takes all but the old contributions
                # of affected parents, which rebuild theirs from scratch.
                # The chunk's own marks land after this point, so the flags
                # gathered with the entries are still every target's.
                keep_old = (oflags & AFFECTED) == 0
                ko, eo, vo = kc[ro], eid_old, -c_old
                if exclude_new_edge:
                    # The added edge did not exist before the update, so it
                    # carries no old dependency; it is the only entry with
                    # its registry id.
                    kept = eid_old != state.edge_id
                    if not kept.all():
                        ko, eo, vo = ko[kept], eo[kept], vo[kept]
                        keep_old &= kept

                # Edge scores take every contribution.  An edge gets at most
                # one new and one old contribution in a chunk, both from one
                # entry (a new-DAG edge joins two levels, and an edge between
                # two members is an old-DAG edge from one side only), so
                # news-then-olds keeps every edge accumulator's scalar order.
                es_k.append(np.concatenate((kc[rn], ko)))
                es_id.append(np.concatenate((eid_new, eo)))
                es_val.append(np.concatenate((c_new, vo)))
                # Dependencies take theirs in the scalar visitation order:
                # entries ascending, an entry's new contribution before its
                # old one.  When both DAGs selected the same entries that is
                # an interleave; otherwise one merge puts them in order.
                if shared:
                    mask = None
                    if not keep_old.all():
                        mask = np.ones(2 * keep_old.size, dtype=np.bool_)
                        mask[1::2] = keep_old
                    nd_pid = interleave(pn, pn, mask)
                    nd_values = interleave(c_new, -c_old, mask)
                    nd_flags = interleave(nflags, nflags, mask)
                else:
                    order = merge_order(i_new, i_old[keep_old])
                    nd_pid = np.concatenate((pn, po[keep_old]))[order]
                    nd_values = np.concatenate((c_new, -c_old[keep_old]))[order]
                    nd_flags = np.concatenate((nflags, oflags[keep_old]))[order]

                # Untracked targets are never logged: in an undirected graph
                # a dropped pair next to a reachable member is reachable.
                fresh = pairs.first_occurrence(
                    nd_pid[(nd_flags & TRACKED) == 0], unlogged=True
                )
                if fresh.size:
                    pairs.touch(fresh, bits=TRACKED)
                    touched += fresh.size
                    for lvl, group in group_by_level(fresh, distance[fresh]):
                        gk = group // width
                        pair_chunk = (gk, group - gk * width)
                        if lvl == level:
                            queue.append(pair_chunk)
                        else:
                            buckets.setdefault(lvl, deque()).append(pair_chunk)
                np.add.at(delta, nd_pid, nd_values)

            # Two deferred single adds per member — +new then -old — replay
            # the scalar (score + new) - old association exactly.
            keep = chunk != source_of_row[kc]
            tk = kc[keep]
            ts = chunk[keep]
            vs_k.append(np.repeat(tk, 2))
            vs_slot.append(np.repeat(ts, 2))
            vs_val.append(interleave(deln[keep], -delo[keep]))

    # Disconnected tails, merged across the cohort (Algorithm 10): each
    # row's entries keep their discovery order, and the ordinal-stable
    # flush puts them after that row's sweep entries like the scalar
    # epilogue.  Disconnected pairs were dropped, hence logged.
    if disc_pid.size:
        disc_k = disc_pid // width
        disc_s = disc_pid - disc_k * width
        dpos = pairs.position[disc_pid]
        wdo = pairs.log_distance[dpos]
        delo = np.where(wdo != -1, pairs.log_delta[dpos], 0.0)
        keep = disc_s != source_of_row[disc_k]
        vs_k.append(disc_k[keep])
        vs_slot.append(disc_s[keep])
        vs_val.append(-delo[keep])
        positions, counts = slice_positions(in_indptr, disc_s)
        if positions.size:
            par = in_indices[positions]
            rep = np.repeat(np.arange(disc_s.size, dtype=np.int64), counts)
            ppid = disc_k[rep] * width + par
            pdo = pairs.old_distance(ppid)
            old_e = (wdo[rep] != -1) & (pdo != -1) & (pdo + 1 == wdo[rep])
            i_old = np.flatnonzero(old_e)
            c_old = (
                pairs.old_sigma(ppid[i_old])
                / pairs.log_sigma[dpos][rep[i_old]]
                * (1.0 + delo[rep[i_old]])
            )
            es_k.append(disc_k[rep[i_old]])
            es_id.append(in_edge_ids[positions[i_old]])
            es_val.append(-c_old)

    streams.extend(ordinal_of_row, vs_k, vs_slot, vs_val, es_k, es_id, es_val)
    return touched


def _accumulate_directed_cohort(
    state: FlatBatchState,
    pairs: PairSpace,
    source_of_row: np.ndarray,
    ordinal_of_row: np.ndarray,
    chunk_pid: np.ndarray,
    rem_rows: np.ndarray,
    rem_highs: np.ndarray,
    rem_red: np.ndarray,
    rem_rid: np.ndarray,
    disc_pid: np.ndarray,
    streams: CohortScoreStreams,
    exclude_new_edge: bool,
) -> int:
    """Cohort variant of :func:`_accumulate_directed` (three order-free phases).

    Region membership, not order, determines every result here: phase 2 is
    a pure function of the new DAG evaluated level-synchronously, and phase
    3 touches each vertex- and edge-accumulator from exactly one region
    vertex's scan (new contribution before old, like the scalar loop) — so
    the scalar's set-iteration seed order need not be reproduced.  The
    pair-space lift therefore only has to preserve *per-accumulator*
    sequences: the phase-2 level loop runs over global absolute levels (a
    per-row no-op on levels a region lacks), and phase 3 emits all new
    contributions before all old ones so the ordinal-stable flush yields
    the scalar new-before-old order per edge id within each source.
    Returns the region's size — the touched set, seeded with every plan
    pair.
    """
    width = pairs.width
    indptr, indices = state.indptr, state.indices
    in_indptr = state.in_indptr
    in_indices = state.in_indices
    in_edge_ids = state.in_edge_ids
    distance, sigma, delta = pairs.distance, pairs.sigma, pairs.delta

    # ------------------------------------------------------------------ #
    # Phase 1: upward closure of every job's changed region.
    # ------------------------------------------------------------------ #
    region_chunks: List[np.ndarray] = []
    frontier: Deque[Tuple[np.ndarray, np.ndarray]] = deque()

    def join(cpid: np.ndarray) -> None:
        fresh = pairs.first_occurrence(cpid[~pairs.has(cpid, REGION)])
        if fresh.size:
            pairs.mark(fresh, REGION)
            region_chunks.append(fresh)
            fk = fresh // width
            frontier.append((fk, fresh - fk * width))

    seed_pids: List[np.ndarray] = [chunk_pid]
    if disc_pid.size:
        seed_pids.append(disc_pid)
    if rem_rows.size:
        seed_pids.append(rem_rows * width + rem_highs)
    join(np.concatenate(seed_pids))
    while frontier:
        fk, fs = frontier.popleft()
        positions, counts = slice_positions(in_indptr, fs)
        if positions.size == 0:
            continue
        rep = np.repeat(np.arange(fs.size, dtype=np.int64), counts)
        fpid = fk * width + fs
        ppid = fk[rep] * width + in_indices[positions]
        wdn = distance[fpid][rep]
        wdo = pairs.old_distance(fpid)[rep]
        pdn = distance[ppid]
        pdo = pairs.old_distance(ppid)
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
    region_k = region_pid // width
    region_s = region_pid - region_k * width

    # ------------------------------------------------------------------ #
    # Phase 2: new dependencies by descending (global) new distance.
    # ------------------------------------------------------------------ #
    pairs.touch(region_pid)
    rwd = distance[region_pid]
    sel = rwd != -1
    reach_pid = region_pid[sel]
    reach_levels = rwd[sel].astype(np.int64)
    if reach_pid.size:
        for level in np.unique(reach_levels)[::-1]:
            msel = reach_levels == level
            mpid = reach_pid[msel]
            mk = mpid // width
            ms = mpid - mk * width
            segments = np.zeros(mpid.size, dtype=np.float64)
            positions, counts = slice_positions(indptr, ms)
            if positions.size:
                rep = np.repeat(np.arange(ms.size, dtype=np.int64), counts)
                kpid = mk[rep] * width + indices[positions]
                child_mask = distance[kpid] == level + 1
                if child_mask.any():
                    terms = (
                        sigma[mpid][rep[child_mask]]
                        / sigma[kpid[child_mask]]
                        * (1.0 + delta[kpid[child_mask]])
                    )
                    np.add.at(segments, rep[child_mask], terms)
            delta[mpid] = segments

    # ------------------------------------------------------------------ #
    # Phase 3: fold the corrections into the global scores (deferred).
    # ------------------------------------------------------------------ #
    es_k: List[np.ndarray] = []
    es_id: List[np.ndarray] = []
    es_val: List[np.ndarray] = []
    vs_k: List[np.ndarray] = []
    vs_slot: List[np.ndarray] = []
    vs_val: List[np.ndarray] = []

    if rem_rows.size:
        es_k.append(rem_rows)
        es_id.append(rem_rid)
        es_val.append(-rem_red)

    if region_pid.size:
        rpos = pairs.position[region_pid]
        wdn_v = distance[region_pid]
        wdo_v = pairs.log_distance[rpos]
        wdeln = np.where(wdn_v != -1, delta[region_pid], 0.0)
        wdelo = np.where(wdo_v != -1, pairs.log_delta[rpos], 0.0)
        keep = region_s != source_of_row[region_k]
        tk = region_k[keep]
        ts = region_s[keep]
        vs_k.append(np.repeat(tk, 2))
        vs_slot.append(np.repeat(ts, 2))
        vs_val.append(interleave(wdeln[keep], -wdelo[keep]))

        positions, counts = slice_positions(in_indptr, region_s)
        if positions.size:
            par = in_indices[positions]
            eid = in_edge_ids[positions]
            rep = np.repeat(np.arange(region_s.size, dtype=np.int64), counts)
            krep = region_k[rep]
            ppid = krep * width + par
            pdn = distance[ppid]
            pdo = pairs.old_distance(ppid)
            wdn_r = wdn_v[rep]
            wdo_r = wdo_v[rep]
            new_p = (wdn_r != -1) & (pdn != -1) & (pdn + 1 == wdn_r)
            old_p = (wdo_r != -1) & (pdo != -1) & (pdo + 1 == wdo_r)
            if exclude_new_edge:
                # Every directed job's edge runs ``us -> vs``.
                old_p &= ~((par == state.us) & (region_s[rep] == state.vs))
            i_new = np.flatnonzero(new_p)
            i_old = np.flatnonzero(old_p)
            c_new = (
                sigma[ppid[i_new]]
                / sigma[region_pid][rep[i_new]]
                * (1.0 + wdeln[rep[i_new]])
            )
            c_old = (
                pairs.old_sigma(ppid[i_old])
                / pairs.log_sigma[rpos][rep[i_old]]
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

    streams.extend(ordinal_of_row, vs_k, vs_slot, vs_val, es_k, es_id, es_val)
    return region_pid.size
