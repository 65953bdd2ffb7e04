"""Adversarial repair streams for the cohort update-sweep kernel.

The cohort (pair-space, numpy-bucketed) repair path promises *bit-identical*
scores and records against the classic dict backend — ``==`` on floats,
never approximate.  This suite attacks that promise with the stream shapes
that historically broke incremental repair implementations:

* multi-level distance drops (a shortcut addition that pulls a whole
  subtree several levels up, and a bridge removal that pushes one down);
* vertex births inside a batch, including chained births where the second
  update hangs off a vertex born by the first;
* disconnections and reconnections, within one batch and across batches;
* duplicate (remove-then-readd) and, on directed graphs, inverse edges in
  one batch;
* the remove-then-readd edge-score resurrection shape (PR 1 regression).

Every deterministic case and every hypothesis-generated stream is checked
after EVERY batch on {undirected, directed} x {in-RAM columns, mmap disk,
mmap disk sized to the initial vertex count, so births grow, rebuild and
remap the file mid-stream}, comparing vertex scores, edge scores, and all
stored records; the deterministic cases additionally compare every
update's work statistics, and run once more with every batch failing
after its first (or last) swept update before it is retried: the failure
must leave the pre-batch state whole, births included.

Alongside: the kernel's incrementally patched CSR against a from-scratch
compile, an int64 sigma overflow inside a repair (refused whole, and a
batch whose later update overflows rolled back whole), the disk
store's in-place cohort sweep against an in-RAM column store (and across a
reopen), and the merge the accumulation uses in place of a sort.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.core
from repro.api import BetweennessConfig, BetweennessSession
from repro.core import ArrayKernel, EdgeUpdate, IncrementalBetweenness
from repro.core.flat import (
    AFFECTED,
    DROPPED,
    TRACKED,
    PairSpace,
    group_by_level,
    interleave,
    merge_order,
    scan_entries,
    slice_positions,
)
from repro.exceptions import StoreCorruptedError
from repro.graph import CSRGraph, Graph
from repro.storage import ArrayBDStore, DiskBDStore

settings.register_profile(
    "repro-repair-vectorized",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-repair-vectorized")

STORE_KINDS = ("memory", "disk-mmap", "disk-tight")


def build_graph(n, edges, directed):
    graph = Graph(directed=directed)
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def make_arrays_framework(graph, store_kind, tmp_path):
    """An ``arrays``-backend framework over the requested store kind.

    ``disk-tight`` leaves the file no spare slot, so the first birth grows
    it (stream into a sibling, replace, remap) while a batch is in flight.
    """
    if store_kind == "memory":
        return IncrementalBetweenness(graph, backend="arrays")
    store = DiskBDStore(
        graph.vertex_list(),
        path=tmp_path / f"bd-{store_kind}.bin",
        capacity=graph.num_vertices if store_kind == "disk-tight" else None,
        directed=graph.directed,
    )
    return IncrementalBetweenness(graph, store=store, backend="arrays")


def assert_streams_bit_identical(arrays, dicts, context):
    """Exact equality of both score mappings and every stored record."""
    va, vd = arrays.vertex_betweenness(), dicts.vertex_betweenness()
    assert va == vd, f"{context}: vertex scores diverge: " + repr(
        {k: (va.get(k), vd.get(k)) for k in set(va) | set(vd) if va.get(k) != vd.get(k)}
    )
    ea, ed = arrays.edge_betweenness(), dicts.edge_betweenness()
    assert ea == ed, f"{context}: edge scores diverge: " + repr(
        {k: (ea.get(k), ed.get(k)) for k in set(ea) | set(ed) if ea.get(k) != ed.get(k)}
    )
    assert set(arrays.store.sources()) == set(dicts.store.sources()), context
    for source in dicts.store.sources():
        flat = arrays.store.get(source)
        record = dicts.store.get(source)
        assert flat.distance == record.distance, f"{context}: distance[{source}]"
        assert flat.sigma == record.sigma, f"{context}: sigma[{source}]"
        assert flat.delta == record.delta, f"{context}: delta[{source}]"


def run_differential(graph, batches, store_kind):
    """Run both backends batch by batch; returns their ``BatchResult`` pairs."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        arrays = make_arrays_framework(graph.copy(), store_kind, Path(tmp))
        dicts = IncrementalBetweenness(graph.copy(), backend="dicts")
        assert_streams_bit_identical(arrays, dicts, "bootstrap")
        for i, batch in enumerate(batches):
            results.append(
                (arrays.apply_updates(list(batch)), dicts.apply_updates(list(batch)))
            )
            assert_streams_bit_identical(
                arrays, dicts, f"after batch {i} ({batch})"
            )
            # Every per-pair bit the sweep set was cleared where it was set.
            assert not arrays._kernel._pairs.flags.any(), f"batch {i}"
        if store_kind == "disk-tight" and len(arrays.graph) > len(graph):
            # Witness that the births really outgrew the file.
            assert arrays.store.capacity > len(graph)
        arrays.store.close()
    return results


def work_counts(batch_result):
    """A batch's counters and every update's statistics, as comparable data."""
    return (
        batch_result.sources_loaded,
        batch_result.sources_peek_skipped,
        [
            (
                result.case_counts,
                result.sources_processed,
                result.sources_skipped,
                result.affected_vertices,
                result.touched_vertices,
                result.disconnected_vertices,
            )
            for result in batch_result.results
        ],
    )


add = EdgeUpdate.addition
remove = EdgeUpdate.removal

# name -> (n, edges, batches); every case runs undirected AND directed.
ADVERSARIAL_CASES = {
    # A chord lifts the tail of a long path several levels at once, then
    # the path edge behind it is cut so distances fall right back down.
    "multi_level_drop": (
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        [[add(0, 5)], [remove(4, 5), add(0, 3)], [remove(0, 5)]],
    ),
    # Births inside one batch, chained: 7 is born hanging off 2, then 8 is
    # born hanging off the just-born 7, then the anchor edge is cut.
    "births_in_batch": (
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)],
        [[add(2, 7), add(7, 8)], [remove(2, 7)], [add(0, 7), add(8, 2)]],
    ),
    # A bridge is cut (disconnecting one side), re-added in the same batch,
    # then cut again and reconnected through a different vertex next batch.
    "disconnect_reconnect": (
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (1, 5)],
        [[remove(1, 2), add(1, 2)], [remove(1, 2)], [add(0, 4), add(5, 3)]],
    ),
    # The same edge is removed, re-added and removed again within one
    # batch: its score entry must die, resurrect from zero, and die again.
    "duplicate_in_batch": (
        5,
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 4)],
        [[remove(1, 3), add(1, 3), remove(1, 3)], [add(1, 3)]],
    ),
    # Inverse edges in one batch: on a directed graph (u, v) and (v, u) are
    # distinct edges with distinct scores; undirected they collapse to a
    # remove-then-readd of the same edge (also worth hitting).
    "inverse_edges": (
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        [[remove(1, 2), add(2, 1)], [remove(2, 1), add(1, 2), remove(4, 0)]],
    ),
    # Remove-then-readd across batches: the PR 1 regression shape, where a
    # re-added edge's score must restart from zero, not its old value.
    "remove_then_readd": (
        6,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        [[remove(3, 4)], [add(3, 4)], [remove(0, 1), remove(2, 3)], [add(2, 3)]],
    ),
}


@pytest.mark.parametrize("store_kind", STORE_KINDS)
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
class TestAdversarialStreams:
    def test_bit_identical_after_every_batch(self, case, directed, store_kind):
        n, edges, batches = ADVERSARIAL_CASES[case]
        graph = build_graph(n, edges, directed)
        results = run_differential(graph, batches, store_kind)
        # The bulk-folded statistics equal the dict backend's per-source ones.
        assert [work_counts(a) for a, _ in results] == [
            work_counts(d) for _, d in results
        ]


class InjectedFault(Exception):
    """Raised inside a batch's sweep, right after an update's repair."""


def framework_state(framework):
    """Everything a failed batch must leave as it was, as comparable data."""
    store = framework.store
    return (
        framework.vertex_betweenness(),
        framework.edge_betweenness(),
        sorted(framework.graph.vertices()),
        sorted(framework.graph.edges()),
        {
            source: (record.distance, record.sigma, record.delta)
            for source in store.sources()
            for record in [store.get(source)]
        },
    )


@pytest.mark.parametrize(
    "fail_at", ["first-update", "last-update"], ids=["fail-first", "fail-last"]
)
@pytest.mark.parametrize("store_kind", STORE_KINDS)
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
class TestAdversarialRollback:
    """Every batch first fails once, after the in-place repair of its first
    (or last) swept update, then is applied for real.  The failure must
    restore the pre-batch state whole and clear every per-pair bit; the
    retry must match the dict backend bit for bit, statistics included."""

    def test_failed_batch_restores_then_retry_is_exact(
        self, case, directed, store_kind, fail_at, monkeypatch
    ):
        n, edges, batches = ADVERSARIAL_CASES[case]
        graph = build_graph(n, edges, directed)
        original = ArrayKernel.repair_update_cohort
        armed = []  # the length of the batch that is to fail

        def faulty(kernel, update_index, result):
            original(kernel, update_index, result)
            if armed and (fail_at == "first-update" or update_index == armed[0] - 1):
                raise InjectedFault(update_index)

        monkeypatch.setattr(ArrayKernel, "repair_update_cohort", faulty)
        faults = 0
        with tempfile.TemporaryDirectory() as tmp:
            arrays = make_arrays_framework(graph.copy(), store_kind, Path(tmp))
            dicts = IncrementalBetweenness(graph.copy(), backend="dicts")
            for i, batch in enumerate(batches):
                before = framework_state(arrays)
                armed[:] = [len(batch)]
                try:
                    committed = arrays.apply_updates(list(batch))
                except InjectedFault:
                    faults += 1
                    assert framework_state(arrays) == before, f"batch {i}"
                    assert not arrays._kernel._pairs.flags.any(), f"batch {i}"
                    armed.clear()
                    committed = arrays.apply_updates(list(batch))
                armed.clear()
                expected = dicts.apply_updates(list(batch))
                assert_streams_bit_identical(arrays, dicts, f"retried batch {i}")
                assert work_counts(committed) == work_counts(expected), f"batch {i}"
            arrays.store.close()
        # Witness that the faults really fired (a batch that every source
        # peek-skips repairs nothing and so cannot fail).
        assert faults > 0


@st.composite
def batched_stream(draw, directed):
    """A random graph plus a batched update script biased toward trouble.

    The script is generated against a shadow copy so every update is valid
    at its point in the stream; the bias re-picks recently removed edges
    (remove-then-readd), attaches brand-new vertices (births), and on
    directed graphs proposes the inverse of existing edges.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v)
    ]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    shadow = build_graph(n, edges, directed)
    next_vertex = n
    removed_recently = []
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            choice = draw(st.integers(min_value=0, max_value=4))
            current = shadow.edge_list()
            if choice == 0 and current:  # removal (may disconnect)
                u, v = current[draw(st.integers(0, len(current) - 1))]
                batch.append(remove(u, v))
                shadow.remove_edge(u, v)
                removed_recently.append((u, v))
            elif choice == 1 and removed_recently:  # readd a removed edge
                u, v = removed_recently.pop()
                if not shadow.has_edge(u, v):
                    batch.append(add(u, v))
                    shadow.add_edge(u, v)
            elif choice == 2:  # vertex birth
                verts = shadow.vertex_list()
                u = verts[draw(st.integers(0, len(verts) - 1))]
                batch.append(add(u, next_vertex))
                shadow.add_edge(u, next_vertex)
                next_vertex += 1
            else:  # addition; on directed graphs this includes inverses
                verts = shadow.vertex_list()
                non_edges = [
                    (u, v)
                    for u in verts
                    for v in verts
                    if u != v
                    and (directed or u < v)
                    and not shadow.has_edge(u, v)
                ]
                if not non_edges:
                    continue
                u, v = non_edges[draw(st.integers(0, len(non_edges) - 1))]
                batch.append(add(u, v))
                shadow.add_edge(u, v)
        if batch:
            batches.append(batch)
    return build_graph(n, edges, directed), batches


class TestHypothesisStreams:
    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @given(data=st.data())
    def test_memory_store(self, directed, data):
        graph, batches = data.draw(batched_stream(directed))
        run_differential(graph, batches, "memory")

    @pytest.mark.parametrize("store_kind", ["disk-mmap", "disk-tight"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_disk_stores(self, store_kind, data):
        directed = data.draw(st.booleans())
        graph, batches = data.draw(batched_stream(directed))
        run_differential(graph, batches, store_kind)


class TestIncrementalCSR:
    """The kernel's live CSR is patched per committed update, never
    recompiled, and stays exactly what a from-scratch compile would be."""

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    @given(data=st.data())
    def test_live_arrays_equal_a_fresh_compile(self, directed, data):
        graph, batches = data.draw(batched_stream(directed))
        framework = IncrementalBetweenness(graph, backend="arrays")
        kernel = framework._kernel
        compiles = kernel.csr.rebuild_count
        registry_pairs = kernel._escore._pairs
        for i, batch in enumerate(batches):
            framework.apply_updates(batch)
            fresh = CSRGraph.from_graph(framework.graph, kernel.index)
            families = [(kernel.csr.compiled()[:3], fresh.compiled()[:3], False)]
            if directed:
                families.append((kernel.csr.compiled_in(), fresh.compiled_in(), True))
            for live, expected, inbound in families:
                indptr, indices, edge_ids = live
                assert indptr.tolist() == expected[0].tolist(), f"batch {i}"
                assert indices.tolist() == expected[1].tolist(), f"batch {i}"
                # Every entry carries the registry id of its own slot pair.
                rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
                for row, col, edge_id in zip(
                    rows.tolist(), indices.tolist(), edge_ids.tolist()
                ):
                    tail, head = (col, row) if inbound else (row, col)
                    assert registry_pairs[edge_id] == kernel.slot_edge_key(
                        tail, head
                    ), f"batch {i}"
            assert kernel.csr.rebuild_count == compiles, f"batch {i}"


def diamond_chain():
    """63 diamonds: hub ``i`` reaches hub ``i + 1`` through ``64 + i`` and
    ``127 + i``; the last diamond lacks the edge ``(189, 63)``.  190
    vertices; path counts reach ``2**62`` end to end, one short of the
    int64 sigma column's limit."""
    graph = Graph()
    for i in range(63):
        graph.add_edge(i, 64 + i)
        graph.add_edge(64 + i, i + 1)
        graph.add_edge(i, 127 + i)
        if i < 62:
            graph.add_edge(127 + i, i + 1)
    return graph


class TestRepairSigmaOverflow:
    """An update that overflows int64 sigma fails loudly and changes nothing."""

    @pytest.mark.parametrize("store", ["arrays", "disk-mmap"])
    def test_overflowing_update_is_refused_whole(self, store, tmp_path):
        uri = (
            "arrays://"
            if store == "arrays"
            else f"disk://{tmp_path / 'bd.bin'}?mmap=true"
        )
        graph = diamond_chain()
        config = BetweennessConfig(backend="arrays", store=uri)
        with BetweennessSession(graph, config) as session:
            vertex_before = session.vertex_betweenness()
            edge_before = session.edge_betweenness()
            # Completing the last diamond doubles 2**62 paths to 2**63.
            with pytest.raises(StoreCorruptedError):
                session.apply_batch([add(189, 63)])
            assert session.vertex_betweenness() == vertex_before
            assert session.edge_betweenness() == edge_before
            assert not session.graph.has_edge(189, 63)
            assert (63, 189) not in session.edge_betweenness()
            # Nothing half-applied survives: the next update is exact.
            session.apply_batch([remove(63, 126)])
            oracle = IncrementalBetweenness(graph, backend="dicts")
            oracle.remove_edge(63, 126)
            assert session.vertex_betweenness() == oracle.vertex_betweenness()
            assert session.edge_betweenness() == oracle.edge_betweenness()

    @pytest.mark.parametrize("store", ["arrays", "disk-mmap"])
    def test_failed_batch_rolls_back_every_update(self, store, tmp_path):
        """The batch's first update repairs cleanly and in place; its second
        overflows.  Both are undone: every record and both score maps are
        back at their pre-batch values, and the next update is exact."""
        uri = (
            "arrays://"
            if store == "arrays"
            else f"disk://{tmp_path / 'bd.bin'}?mmap=true"
        )
        graph = diamond_chain()
        config = BetweennessConfig(backend="arrays", store=uri)
        with BetweennessSession(graph, config) as session:
            bd = session.framework.store
            records = {source: bd.get(source) for source in bd.sources()}
            vertex_before = session.vertex_betweenness()
            edge_before = session.edge_betweenness()
            with pytest.raises(StoreCorruptedError):
                session.apply_batch([add(64, 127), add(189, 63)])
            assert session.vertex_betweenness() == vertex_before
            assert session.edge_betweenness() == edge_before
            assert not session.graph.has_edge(64, 127)
            assert bd.get(64).distance[127] == 2  # update 1 had made it 1
            for source, record in records.items():
                now = bd.get(source)
                assert (now.distance, now.sigma, now.delta) == (
                    record.distance, record.sigma, record.delta
                ), source
            session.apply_batch([add(64, 128)])
            oracle = IncrementalBetweenness(graph, backend="dicts")
            oracle.add_edge(64, 128)
            assert session.vertex_betweenness() == oracle.vertex_betweenness()
            assert session.edge_betweenness() == oracle.edge_betweenness()


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
class TestDiskCohortSweep:
    """The disk store's cohort sweep runs in place on the mapped file.

    The record area is mapped once and served as three strided column
    matrices, so the sweep repairs records where they lie: no batch writes
    a whole record back.  Scores and records must stay ``==`` an in-RAM
    column store's and must survive a close and reopen of the file.
    """

    def test_mmap_sweep_equals_array_store(self, case, directed, tmp_path):
        n, edges, batches = ADVERSARIAL_CASES[case]
        ram_store = ArrayBDStore(list(range(n)), directed=directed)
        ram = IncrementalBetweenness(
            build_graph(n, edges, directed), store=ram_store, backend="arrays"
        )
        path = tmp_path / "mmap.bin"
        disk_store = DiskBDStore(list(range(n)), path=path, directed=directed)
        disk = IncrementalBetweenness(
            build_graph(n, edges, directed), store=disk_store, backend="arrays"
        )
        # Witness that the sweep writes through the mapped views — a
        # whole-record put during a batch would be a write-back copy.
        puts = {"count": 0}
        for name in ("put", "put_columns"):
            original = getattr(disk_store, name)

            def spy(*args, _original=original, **kwargs):
                puts["count"] += 1
                return _original(*args, **kwargs)

            setattr(disk_store, name, spy)
        try:
            for i, batch in enumerate(batches):
                ram.apply_updates(list(batch))
                disk.apply_updates(list(batch))
                context = f"{case} batch {i}"
                assert disk.vertex_betweenness() == ram.vertex_betweenness(), context
                assert disk.edge_betweenness() == ram.edge_betweenness(), context
                for source in ram_store.sources():
                    ours = disk_store.get(source)
                    theirs = ram_store.get(source)
                    assert ours.distance == theirs.distance, context
                    assert ours.sigma == theirs.sigma, context
                    assert ours.delta == theirs.delta, context
            assert puts["count"] == 0
            disk_store.close()
            reopened = DiskBDStore.open(path)
            try:
                assert set(reopened.sources()) == set(ram_store.sources())
                for source in ram_store.sources():
                    ours = reopened.get(source)
                    theirs = ram_store.get(source)
                    assert ours.distance == theirs.distance, source
                    assert ours.sigma == theirs.sigma, source
                    assert ours.delta == theirs.delta, source
            finally:
                reopened.close()
        finally:
            disk_store.close()
            ram_store.close()


class TestScatterOrder:
    """``np.add.at`` applies duplicate indices one by one, in operand order
    — the property the kernel's bit-identity argument rests on."""

    def test_scatter_add_ordered_duplicates(self):
        acc = np.zeros(4)
        idx = np.array([1, 1, 3, 1, 0], dtype=np.int64)
        vals = np.array([0.1, 0.2, 1.0, 0.4, 2.0])
        np.add.at(acc, idx, vals)
        expected = np.zeros(4)
        for i, v in zip(idx.tolist(), vals.tolist()):
            expected[i] += v
        assert acc.tolist() == expected.tolist()


class TestMergeOrder:
    """The accumulation's merge of new- and old-DAG selections is the
    parity argsort it replaces: ascending, ``first`` before ``second`` on
    ties."""

    @example(first=set(), second=set())
    @example(first={0, 3, 9}, second=set())
    @example(first=set(), second={2, 4})
    @example(first={1, 5, 6}, second={1, 5, 7})
    @given(
        first=st.sets(st.integers(min_value=0, max_value=60)),
        second=st.sets(st.integers(min_value=0, max_value=60)),
    )
    def test_equals_the_parity_argsort(self, first, second):
        a = np.array(sorted(first), dtype=np.int64)
        b = np.array(sorted(second), dtype=np.int64)
        expected = np.argsort(np.concatenate((2 * a, 2 * b + 1)))
        assert merge_order(a, b).tolist() == expected.tolist()


class TestInterleave:
    """When both DAGs select the same entries, the accumulation interleaves
    their contributions instead of merging them: the same sequence as
    :func:`merge_order`'s, also where some old contributions are dropped."""

    @example(positions={0, 4, 7}, data=[False, True, False])
    @example(positions={3}, data=[False])
    @example(positions=set(), data=[])
    @given(
        positions=st.sets(st.integers(min_value=0, max_value=60)),
        data=st.lists(st.booleans(), max_size=61),
    )
    def test_equals_the_merge_of_one_selection(self, positions, data):
        entries = np.array(sorted(positions), dtype=np.int64)
        keep_old = np.resize(np.array(data + [True], dtype=np.bool_), entries.size)
        new = entries * 1.5 + 0.25
        old = -(entries * 0.5) - 1.0
        merged = np.concatenate((new, old[keep_old]))[
            merge_order(entries, entries[keep_old])
        ]
        keep = np.ones(2 * entries.size, dtype=np.bool_)
        keep[1::2] = keep_old
        assert interleave(new, old, keep).tolist() == merged.tolist()
        if keep_old.all():
            assert interleave(new, old).tolist() == merged.tolist()


@st.composite
def chunk_scans(draw):
    """A pair space in the middle of an update and one chunk's parent scan.

    Logged pairs are moved (a distance write under ``AFFECTED`` or
    ``DROPPED``, unreachable included), affected without a distance write,
    or only tracked.  Chunk members sit on new level ``level`` with any
    pre-update distance (``-1``, the level, or off it), and each member's
    entries are its slot's in-neighbours in its own row.
    """
    rows = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=2, max_value=7))
    level = draw(st.integers(min_value=1, max_value=4))
    size = rows * width
    values = st.integers(min_value=-1, max_value=level + 2)
    distance = np.array(
        draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int16
    ).reshape(rows, width)
    sigma = np.ones((rows, width), dtype=np.int64)
    delta = np.zeros((rows, width), dtype=np.float64)
    pairs = PairSpace()
    pairs.bind((distance, sigma, delta))
    pairs.begin_update()
    logged = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    for pid in logged:
        kind = draw(st.sampled_from(["moved", "dropped", "affected", "tracked"]))
        pid_array = np.array([pid], dtype=np.int64)
        if kind in ("moved", "dropped"):
            bit = AFFECTED if kind == "moved" else DROPPED
            pairs.touch(pid_array, distance=True, bits=bit)
            pairs.distance[pid] = draw(values)
        else:
            pairs.touch(pid_array, bits=AFFECTED if kind == "affected" else TRACKED)
    member_pids = np.array(
        draw(st.lists(st.integers(0, size - 1), unique=True, min_size=1, max_size=8)),
        dtype=np.int64,
    )
    wdo = np.array(
        draw(
            st.lists(
                st.sampled_from([-1, level - 1, level, level, level + 1]),
                min_size=member_pids.size,
                max_size=member_pids.size,
            )
        ),
        dtype=np.int16,
    )
    adjacency = draw(
        st.lists(
            st.lists(st.integers(0, width - 1), max_size=5),
            min_size=width,
            max_size=width,
        )
    )
    indptr = np.zeros(width + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adjacency], out=indptr[1:])
    indices = np.array([v for nbrs in adjacency for v in nbrs], dtype=np.int64)
    return pairs, level, member_pids // width, member_pids % width, wdo, indptr, indices


class TestOldParents:
    """The old-DAG selection evaluated only where it can differ from the
    new one equals the full-length formula at every entry."""

    @given(scan=chunk_scans())
    @settings(max_examples=200)
    def test_equals_the_full_length_formula(self, scan):
        pairs, level, rows, chunk, wdo, indptr, indices = scan
        positions, member, bounds = scan_entries(indptr, chunk)
        expected_positions, counts = slice_positions(indptr, chunk)
        assert positions.tolist() == expected_positions.tolist()
        assert member.tolist() == np.repeat(np.arange(chunk.size), counts).tolist()
        ppid = rows[member] * pairs.width + indices[positions]
        i_new = np.flatnonzero(pairs.distance[ppid] == level - 1)
        brute = np.flatnonzero(pairs.old_distance(ppid) == np.repeat(wdo - 1, counts))
        selected = pairs.old_parents(ppid, member, bounds, rows, wdo, level, i_new)
        assert selected.tolist() == brute.tolist()

    def test_moved_parents_and_members(self):
        # Row 0 keeps its distances.  In row 1 the update moved slot 1 from
        # level 1 to 2 and dropped slot 2, both old parents of the member
        # at slot 3, which kept level 2; the member at slot 4 was
        # unreachable before.  Slot 3's in-neighbours are 1 and 2, slot
        # 4's are 1, 2 and 3.
        distance = np.array([[0, 1, 1, 2, 2], [0, 1, 1, 2, 2]], dtype=np.int16)
        pairs = PairSpace()
        pairs.bind((distance, np.ones((2, 5), np.int64), np.zeros((2, 5))))
        pairs.begin_update()
        pairs.touch(np.array([6]), distance=True, bits=AFFECTED)
        pairs.touch(np.array([7]), distance=True, bits=DROPPED)
        pairs.distance[6], pairs.distance[7] = 2, -1
        indptr = np.array([0, 0, 0, 0, 2, 5])
        indices = np.array([1, 2, 1, 2, 3])
        rows, chunk = np.array([0, 1, 1]), np.array([4, 3, 4])
        wdo = np.array([2, 2, -1], dtype=np.int16)
        positions, member, bounds = scan_entries(indptr, chunk)
        ppid = rows[member] * 5 + indices[positions]
        i_new = np.flatnonzero(pairs.distance[ppid] == 1)
        counts = np.diff(bounds)
        brute = np.flatnonzero(pairs.old_distance(ppid) == np.repeat(wdo - 1, counts))
        assert i_new.tolist() == [0, 1]
        assert brute.tolist() == [0, 1, 3, 4]
        assert pairs.old_parents(ppid, member, bounds, rows, wdo, 2, i_new).tolist() == (
            brute.tolist()
        )

    def test_unmoved_rows_reuse_the_new_selection(self):
        distance = np.array([[0, 1, 2], [0, 1, 2]], dtype=np.int16)
        pairs = PairSpace()
        pairs.bind((distance, np.ones((2, 3), np.int64), np.zeros((2, 3))))
        pairs.begin_update()
        pairs.touch(np.array([1]), bits=AFFECTED)  # a path count moved
        positions, member, bounds = scan_entries(np.array([0, 0, 0, 2]), np.array([2, 2]))
        rows = np.array([0, 1])
        ppid = rows[member] * 3 + np.array([0, 1])[positions]
        i_new = np.flatnonzero(pairs.distance[ppid] == 1)
        wdo = np.array([2, 2], dtype=np.int16)
        assert pairs.old_parents(ppid, member, bounds, rows, wdo, 2, i_new) is i_new


class TestGroupByLevel:
    """Per-level groups keep their members' order, one level or many."""

    @given(levels=st.lists(st.integers(min_value=0, max_value=3), max_size=20))
    def test_equals_a_selection_per_distinct_level(self, levels):
        level_array = np.array(levels, dtype=np.int64)
        vertices = np.arange(level_array.size, dtype=np.int64) * 7
        groups = group_by_level(vertices, level_array)
        expected = [
            (level, vertices[level_array == level].tolist())
            for level in sorted(set(levels))
        ]
        assert [(level, group.tolist()) for level, group in groups] == expected


def test_core_reads_no_environment_switch():
    """One update path: nothing under ``repro.core`` may branch on the
    process environment, so a hidden fork cannot come back unnoticed."""
    core = Path(repro.core.__file__).parent
    offenders = [
        path.name
        for path in sorted(core.glob("*.py"))
        if re.search("environ|getenv", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
