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
slabs of one and two jobs.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core
from repro.core import ArrayKernel, EdgeUpdate, IncrementalBetweenness
from repro.graph import Graph
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
    with tempfile.TemporaryDirectory() as tmp:
        arrays = make_arrays_framework(graph.copy(), store_kind, Path(tmp))
        dicts = IncrementalBetweenness(graph.copy(), backend="dicts")
        assert_streams_bit_identical(arrays, dicts, "bootstrap")
        for i, batch in enumerate(batches):
            arrays.apply_updates(list(batch))
            dicts.apply_updates(list(batch))
            assert_streams_bit_identical(
                arrays, dicts, f"after batch {i} ({batch})"
            )
        arrays.store.close()


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
        run_differential(graph, batches, store_kind)
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
