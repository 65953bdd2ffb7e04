"""Records cross a serial checkpoint as one column block, bit-exactly.

Every case checkpoints a framework mid-stream, resumes it from the sidecar
(on its own backend or the other one), continues the stream, and asserts
``==`` with an unbroken instance after every batch.  The store shapes cover
what the column export has to get right: a full store, a restricted
partition, births that grow the columns past their initial capacity, and a
temporary :class:`~repro.storage.disk.DiskBDStore` (the same rows, mapped
from a file).  A sidecar write streams the block: it never holds a pickled
copy of the matrices.
"""

import random

import pytest

from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.checkpoint import load_checkpoint
from repro.exceptions import StoreCorruptedError
from repro.graph import Graph
from repro.storage import DiskBDStore

from tests.helpers import random_connected_graph

BATCH = 2


def build_graph(directed):
    graph = random_connected_graph(12, 0.2, seed=5)
    if not directed:
        return graph
    oriented = Graph(directed=True)
    for vertex in graph.vertex_list():
        oriented.add_vertex(vertex)
    for u, v in graph.edges():
        oriented.add_edge(u, v)
        if (u + v) % 3 == 0:
            oriented.add_edge(v, u)
    return oriented


def make_stream(graph, births, length=16, seed=3):
    """A valid mixed stream: additions, removals and ``births`` new vertices."""
    rng = random.Random(seed)
    graph = graph.copy()
    born = iter(range(100, 100 + births))
    birth_at = set(rng.sample(range(length), births))
    stream = []
    for step in range(length):
        vertices = sorted(graph.vertices())
        if step in birth_at:
            u, v = rng.choice(vertices), next(born)
            update = EdgeUpdate.addition(u, v) if step % 2 else EdgeUpdate.addition(v, u)
        elif step % 3 == 2:
            update = EdgeUpdate.removal(*rng.choice(sorted(graph.edges())))
        else:
            absent = [
                (u, v)
                for u in vertices
                for v in vertices
                if u != v and not graph.has_edge(u, v)
            ]
            update = EdgeUpdate.addition(*rng.choice(absent))
        if update.kind.name == "ADDITION":
            graph.add_edge(update.u, update.v)
        else:
            graph.remove_edge(update.u, update.v)
        stream.append(update)
    return [stream[i : i + BATCH] for i in range(0, length, BATCH)]


def build_framework(shape, backend, graph):
    if shape == "restricted":
        partition = graph.vertex_list()[::2]
        return IncrementalBetweenness(graph, sources=partition, backend=backend)
    if shape == "disk":
        store = DiskBDStore(graph.vertex_list(), directed=graph.directed)
        return IncrementalBetweenness(graph, store=store, backend=backend)
    return IncrementalBetweenness(graph, backend=backend)


def scores(framework):
    return framework.vertex_betweenness(), framework.edge_betweenness()


@pytest.mark.parametrize("resume_on", ["same", "other"])
@pytest.mark.parametrize("shape", ["full", "restricted", "births", "disk"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("backend", ["arrays", "dicts"])
def test_resume_continues_bit_identically(tmp_path, backend, directed, shape, resume_on):
    graph = build_graph(directed)
    batches = make_stream(graph, births=12 if shape == "births" else 1)
    half = len(batches) // 2

    unbroken = build_framework(shape, backend, graph)
    expected = []
    for batch in batches:
        unbroken.apply_updates(batch)
        expected.append(scores(unbroken))

    writer = build_framework(shape, backend, graph)
    for batch in batches[:half]:
        writer.apply_updates(batch)
    if shape == "births" and backend == "arrays":
        # The checkpoint must carry columns grown past the initial capacity.
        assert writer.store.capacity > 16
    writer.checkpoint(tmp_path / "ck.bin")
    resume_backend = backend if resume_on == "same" else (
        "dicts" if backend == "arrays" else "arrays"
    )
    resumed = IncrementalBetweenness.resume(tmp_path / "ck.bin", backend=resume_backend)
    if backend == resume_backend == "arrays" and shape != "disk":
        # The resumed store keeps the checkpointed slot and row order.
        assert resumed.store.vertex_index.vertices() == writer.store.vertex_index.vertices()
        assert list(resumed.store.sources()) == list(writer.store.sources())
    writer.store.close()

    assert scores(resumed) == expected[half - 1]
    for batch, reference in zip(batches[half:], expected[half:]):
        resumed.apply_updates(batch)
        assert scores(resumed) == reference
    resumed.store.close()
    unbroken.store.close()


@pytest.mark.parametrize("column", ["distance", "sigma", "delta"])
def test_flipped_byte_in_column_section_is_refused(tmp_path, column):
    framework = IncrementalBetweenness(build_graph(False), backend="arrays")
    path = framework.checkpoint(tmp_path / "ck.bin")
    section = getattr(load_checkpoint(path).columns, column).tobytes()
    blob = bytearray(path.read_bytes())
    offset = blob.find(section)
    assert offset > 0
    blob[offset + len(section) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreCorruptedError):
        IncrementalBetweenness.resume(path, backend="arrays")


def test_sidecar_write_streams_the_block(tmp_path):
    """``save_checkpoint`` pickles the matrices straight into the file: the
    traced peak stays far below the block (a bytes copy per matrix plus one
    pickled string held about 2.5x it)."""
    import tracemalloc

    import numpy as np

    from repro.core.checkpoint import FrameworkCheckpoint, save_checkpoint
    from repro.storage.columns import ColumnBlock

    rng = np.random.default_rng(7)
    shape = (300, 600)
    block = ColumnBlock(
        list(range(shape[1])),
        list(range(shape[0])),
        rng.integers(0, 50, shape).astype(np.int16),
        rng.integers(1, 1 << 40, shape).astype(np.int64),
        rng.random(shape),
    )
    checkpoint = FrameworkCheckpoint(
        vertex_scores={},
        edge_scores={},
        restricted=True,
        adjacency={},
        columns=block,
    )
    size = block.distance.nbytes + block.sigma.nbytes + block.delta.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_checkpoint(tmp_path / "ck.bin", checkpoint)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * size, (peak, size)
    loaded = load_checkpoint(tmp_path / "ck.bin").columns
    for name in ("distance", "sigma", "delta"):
        assert (getattr(loaded, name) == getattr(block, name)).all()


def test_sidecar_read_streams_the_block(tmp_path):
    """``load_checkpoint`` checks the CRC in a streaming pass, then unpickles
    from the file: each matrix is read once, into the object the block keeps.
    The traced peak stays near the block itself (reading the whole file and
    unpickling a copy of every matrix out of it held about twice the block)."""
    import tracemalloc

    import numpy as np

    from repro.core.checkpoint import FrameworkCheckpoint, save_checkpoint
    from repro.storage.columns import ColumnBlock

    rng = np.random.default_rng(11)
    shape = (300, 600)
    block = ColumnBlock(
        list(range(shape[1])),
        list(range(shape[0])),
        rng.integers(0, 50, shape).astype(np.int16),
        rng.integers(1, 1 << 40, shape).astype(np.int64),
        rng.random(shape),
    )
    save_checkpoint(
        tmp_path / "ck.bin",
        FrameworkCheckpoint(
            vertex_scores={},
            edge_scores={},
            restricted=True,
            adjacency={},
            columns=block,
        ),
    )
    size = block.distance.nbytes + block.sigma.nbytes + block.delta.nbytes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(tmp_path / "ck.bin").columns
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size, (peak, size)
    for name in ("distance", "sigma", "delta"):
        assert (getattr(loaded, name) == getattr(block, name)).all()
