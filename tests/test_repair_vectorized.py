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
buffered disk}, comparing vertex scores, edge scores, and all stored
records; the deterministic cases additionally run with the cohort cut into
slabs of one and two jobs, and compare every update's work statistics.

Alongside: the kernel's incrementally patched CSR against a from-scratch
compile, an int64 sigma overflow inside a repair (refused whole), and the
merge the accumulation uses in place of a sort.
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
from repro.core.flat import merge_order
from repro.exceptions import StoreCorruptedError
from repro.graph import CSRGraph, Graph
from repro.storage import DiskBDStore
from repro.storage.buffers import active_segments, shm_available

settings.register_profile(
    "repro-repair-vectorized",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-repair-vectorized")

STORE_KINDS = ("memory", "disk-mmap", "disk-buffered")


def build_graph(n, edges, directed):
    graph = Graph(directed=directed)
    for vertex in range(n):
        graph.add_vertex(vertex)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def make_arrays_framework(graph, store_kind, tmp_path):
    """An ``arrays``-backend framework over the requested store kind."""
    if store_kind == "memory":
        return IncrementalBetweenness(graph, backend="arrays")
    store = DiskBDStore(
        graph.vertex_list(),
        path=tmp_path / f"bd-{store_kind}.bin",
        use_mmap=(store_kind == "disk-mmap"),
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


@pytest.mark.parametrize(
    "slab_jobs", [None, 1, 2], ids=["whole-cohort", "slab-1", "slab-2"]
)
@pytest.mark.parametrize("store_kind", STORE_KINDS)
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
class TestAdversarialStreams:
    def test_bit_identical_after_every_batch(
        self, case, directed, store_kind, slab_jobs, monkeypatch
    ):
        n, edges, batches = ADVERSARIAL_CASES[case]
        graph = build_graph(n, edges, directed)
        slab_sizes = []
        if slab_jobs is not None:
            # A slab holds COHORT_PAIR_BUDGET // n jobs, and n grows with
            # the stream's births: budget for the final vertex count.
            # Source-ordered slabs must keep the deferred score streams'
            # source-major order, so scores stay == dicts.
            widest = max(
                n, 1 + max(w for batch in batches for u in batch for w in u.endpoints)
            )
            monkeypatch.setattr(
                ArrayKernel, "COHORT_PAIR_BUDGET", slab_jobs * widest
            )
            original = ArrayKernel._repair_cohort_slab

            def spy(kernel, state, metas, *args):
                slab_sizes.append(len(metas))
                return original(kernel, state, metas, *args)

            monkeypatch.setattr(ArrayKernel, "_repair_cohort_slab", spy)
        results = run_differential(graph, batches, store_kind)
        # The bulk-folded statistics equal the dict backend's per-source ones.
        assert [work_counts(a) for a, _ in results] == [
            work_counts(d) for _, d in results
        ]
        if slab_jobs is not None:
            # Witness that cohorts really were cut at the requested size.
            assert max(slab_sizes) == slab_jobs


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

    @pytest.mark.parametrize("store_kind", ["disk-mmap", "disk-buffered"])
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


@pytest.mark.parametrize("sweep_allocator", ["heap", "shm"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
class TestBufferedCohortSweep:
    """The buffered (non-mmap) disk path's per-batch column-sweep window.

    Without mmap there are no zero-copy column views, so the framework
    opens a *sweep window* per batch: the record area is materialized once
    into allocator buffers (heap or shared-memory), the cohort sweep runs
    in place against them, and dirty slots are written back as whole
    records when the window closes.  Scores and records must stay ``==``
    the mmap path's, and shm windows must release every segment.
    """

    def test_buffered_window_equals_mmap(
        self, case, directed, sweep_allocator, tmp_path
    ):
        if sweep_allocator == "shm" and not shm_available():
            pytest.skip("shared memory unavailable")
        n, edges, batches = ADVERSARIAL_CASES[case]
        mmap_fw = IncrementalBetweenness(
            build_graph(n, edges, directed),
            store=DiskBDStore(
                list(range(n)),
                path=tmp_path / "mmap.bin",
                use_mmap=True,
                directed=directed,
            ),
            backend="arrays",
        )
        buffered_store = DiskBDStore(
            list(range(n)),
            path=tmp_path / "buffered.bin",
            use_mmap=False,
            directed=directed,
            sweep_allocator=sweep_allocator,
        )
        buffered = IncrementalBetweenness(
            build_graph(n, edges, directed), store=buffered_store, backend="arrays"
        )
        # Witness that the window really opens (and closes) every batch —
        # without it the buffered leg silently degrades to per-record I/O.
        windows = {"opened": 0}
        original = buffered_store.begin_column_sweep

        def spy():
            opened = original()
            windows["opened"] += int(opened)
            return opened

        buffered_store.begin_column_sweep = spy
        try:
            for i, batch in enumerate(batches):
                mmap_fw.apply_updates(list(batch))
                buffered.apply_updates(list(batch))
                context = f"{case} batch {i}"
                assert (
                    buffered.vertex_betweenness() == mmap_fw.vertex_betweenness()
                ), context
                assert (
                    buffered.edge_betweenness() == mmap_fw.edge_betweenness()
                ), context
                for source in mmap_fw.store.sources():
                    ours = buffered_store.get(source)
                    theirs = mmap_fw.store.get(source)
                    assert ours.distance == theirs.distance, context
                    assert ours.sigma == theirs.sigma, context
                    assert ours.delta == theirs.delta, context
            assert windows["opened"] == len(batches)
        finally:
            buffered_store.close()
            mmap_fw.store.close()
        if sweep_allocator == "shm":
            assert active_segments() == []


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
