"""Tests for the betweenness-data stores (memory, disk, codec, index, partition)."""

import numpy as np
import pytest

from repro.algorithms import brandes_betweenness
from repro.algorithms.brandes import SourceData
from repro.exceptions import PartitionError, StoreClosedError, StoreCorruptedError, VertexNotFoundError
from repro.storage import (
    ArrayBDStore,
    DiskBDStore,
    InMemoryBDStore,
    VertexIndex,
    partition_sources,
)
from repro.storage.codec import (
    BYTES_PER_VERTEX,
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    column_offsets,
    decode_record_arrays,
    empty_record,
    encode_record_arrays,
    record_size,
)


def make_data(source, entries):
    """Build a SourceData from {vertex: (d, sigma, delta)}."""
    data = SourceData(source=source)
    for vertex, (d, sigma, delta) in entries.items():
        data.distance[vertex] = d
        data.sigma[vertex] = sigma
        data.delta[vertex] = delta
    return data


class TestVertexIndex:
    def test_slots_are_dense_and_stable(self):
        index = VertexIndex(["a", "b"])
        assert index.slot("a") == 0 and index.slot("b") == 1
        assert index.add("c") == 2
        assert index.add("a") == 0  # idempotent
        assert len(index) == 3
        assert index.vertex(2) == "c"

    def test_unknown_vertex_raises(self):
        index = VertexIndex()
        with pytest.raises(VertexNotFoundError):
            index.slot("missing")
        with pytest.raises(IndexError):
            index.vertex(0)

    def test_iteration_in_slot_order(self):
        index = VertexIndex([3, 1, 2])
        assert list(index) == [3, 1, 2]
        assert index.vertices() == [3, 1, 2]


def columns_of(payload, capacity):
    """The three column views of a record laid out as ``payload`` bytes."""
    return tuple(
        np.frombuffer(payload, dtype=dtype, count=capacity, offset=offset)
        for offset, dtype in zip(
            column_offsets(capacity), (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE)
        )
    )


class TestCodec:
    def test_round_trip(self):
        index = VertexIndex([0, 1, 2, 3])
        data = make_data(1, {0: (1, 2, 0.5), 1: (0, 1, 0.0), 3: (2, 4, 1.25)})
        columns = encode_record_arrays(data, index, capacity=6)
        assert sum(c.nbytes for c in columns) == record_size(6) == 6 * BYTES_PER_VERTEX
        decoded = decode_record_arrays(*columns, 1, index)
        assert decoded.distance == data.distance
        assert decoded.sigma == data.sigma
        assert decoded.delta == data.delta

    def test_unreachable_vertices_omitted(self):
        index = VertexIndex([0, 1])
        data = make_data(0, {0: (0, 1, 0.0)})
        decoded = decode_record_arrays(*encode_record_arrays(data, index, 4), 0, index)
        assert 1 not in decoded.distance

    def test_empty_record_decodes_to_nothing(self):
        index = VertexIndex([0, 1])
        decoded = decode_record_arrays(*columns_of(empty_record(4), 4), 0, index)
        assert decoded.distance == {}

    def test_capacity_too_small_raises(self):
        index = VertexIndex([0, 1, 2])
        data = make_data(0, {0: (0, 1, 0.0)})
        with pytest.raises(StoreCorruptedError):
            encode_record_arrays(data, index, capacity=2)


class TestInMemoryStore:
    def test_put_get_and_contains(self):
        store = InMemoryBDStore()
        data = make_data("s", {"s": (0, 1, 0.0), "t": (1, 1, 0.0)})
        store.put(data)
        assert "s" in store and len(store) == 1
        assert store.get("s") is data

    def test_endpoint_distances(self):
        store = InMemoryBDStore()
        store.put(make_data(0, {0: (0, 1, 0.0), 1: (2, 1, 0.0)}))
        assert store.endpoint_distances(0, 1, 99) == (2, None)

    def test_add_source_initialises_self_reaching_record(self):
        store = InMemoryBDStore()
        store.add_source("new")
        data = store.get("new")
        assert data.distance == {"new": 0}
        assert data.sigma == {"new": 1}

    def test_closed_store_raises(self):
        store = InMemoryBDStore()
        store.close()
        with pytest.raises(StoreClosedError):
            store.add_source(0)

    def test_context_manager(self):
        with InMemoryBDStore() as store:
            store.add_source(1)
        with pytest.raises(StoreClosedError):
            store.get(1)


class TestDiskStore:
    def test_round_trip_matches_brandes_data(self, two_triangles_bridge, tmp_path):
        result = brandes_betweenness(two_triangles_bridge, collect_source_data=True)
        store = DiskBDStore(
            two_triangles_bridge.vertex_list(), path=tmp_path / "bd.bin"
        )
        for data in result.source_data.values():
            store.put(data)
        for source, expected in result.source_data.items():
            loaded = store.get(source)
            assert loaded.distance == expected.distance
            assert loaded.sigma == expected.sigma
            assert loaded.delta == pytest.approx(expected.delta)
        store.close()

    def test_endpoint_distances_reads_only_two_values(self, path5, tmp_path):
        result = brandes_betweenness(path5, collect_source_data=True)
        store = DiskBDStore(path5.vertex_list(), path=tmp_path / "bd.bin")
        for data in result.source_data.values():
            store.put(data)
        read_before = store.bytes_read
        assert store.endpoint_distances(0, 2, 4) == (2, 4)
        assert store.bytes_read - read_before == 4  # two int16 values

    def test_unknown_endpoint_distance_is_none(self, path5):
        store = DiskBDStore(path5.vertex_list())
        assert store.endpoint_distances(0, 0, 777) == (0, None)
        store.close()

    def test_grow_beyond_capacity_rebuilds_file(self):
        store = DiskBDStore([0, 1], capacity=2)
        store.put(make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)}))
        store.add_source(2)  # exceeds capacity of 2 -> grow
        assert store.capacity > 2
        assert store.get(0).distance == {0: 0, 1: 1}
        assert store.get(2).distance == {2: 0}
        store.close()

    def test_capacity_smaller_than_vertices_rejected(self):
        with pytest.raises(StoreCorruptedError):
            DiskBDStore([0, 1, 2], capacity=2)

    def test_temporary_file_removed_on_close(self):
        store = DiskBDStore([0, 1])
        path = store.path
        assert path.exists()
        store.close()
        assert not path.exists()

    def test_named_file_kept_on_close(self, tmp_path):
        target = tmp_path / "persist.bin"
        store = DiskBDStore([0, 1], path=target)
        store.close()
        assert target.exists()

    def test_closed_store_raises(self):
        store = DiskBDStore([0])
        store.close()
        with pytest.raises(StoreClosedError):
            store.get(0)

    def test_io_accounting_increases(self, path5):
        store = DiskBDStore(path5.vertex_list())
        written_after_init = store.bytes_written
        store.put(make_data(0, {0: (0, 1, 0.0)}))
        assert store.bytes_written > written_after_init
        store.get(0)
        assert store.bytes_read > 0
        store.close()


def column_store(kind, grown, path):
    """A column store over sources ``0..2`` with no spare slot; ``grown``
    then registers source 3, which forces a reallocation (RAM) or a file
    rebuild and remap (disk)."""
    if kind == "arrays":
        store = ArrayBDStore([0, 1, 2], capacity=3, sources=None)
    else:
        store = DiskBDStore([0, 1, 2], path=path, capacity=3)
    if grown:
        store.add_source(3)
        assert store.capacity > 3
    return store


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
@pytest.mark.parametrize("kind", ["arrays", "disk"])
class TestColumnProtocol:
    """What the arrays kernel repairs through: every column store hands out
    record views and matrices that alias the store itself, so a repair
    needs no write-back step — before and after the store grows."""

    def test_writable_record_views_alias_the_matrices(self, kind, grown, tmp_path):
        store = column_store(kind, grown, tmp_path / "bd.bin")
        (row,) = store.sweep_rows([0])
        distance, sigma, delta = (m[row] for m in store.column_matrices())
        distance[1], sigma[1], delta[1] = 1, 3, 0.5
        dist_m, sigma_m, delta_m = store.column_matrices()
        row = store.row_of_source_slot(store.vertex_index.slot(0))
        assert (dist_m[row, 1], sigma_m[row, 1], delta_m[row, 1]) == (1, 3, 0.5)
        record = store.get(0)
        assert (record.distance, record.sigma, record.delta) == (
            {0: 0, 1: 1}, {0: 1, 1: 3}, {0: 0.0, 1: 0.5}
        )
        store.close()

    def test_peek_block_is_a_gather_of_the_distance_matrix(
        self, kind, grown, tmp_path
    ):
        store = column_store(kind, grown, tmp_path / "bd.bin")
        store.put(make_data(1, {1: (0, 1, 0.0), 0: (1, 1, 0.0), 2: (2, 1, 0.0)}))
        slots = [store.vertex_index.slot(v) for v in (0, 1)]
        rows = [store.row_of_source_slot(s) for s in slots]
        block = store.peek_distance_block(slots, [0, 1, 2])
        expected = store.column_matrices()[0][np.ix_(rows, [0, 1, 2])]
        assert block.tolist() == expected.tolist() == [[0, -1, -1], [1, 0, 2]]
        store.close()

    def test_short_put_columns_keeps_the_unreachable_tail(
        self, kind, grown, tmp_path
    ):
        store = column_store(kind, grown, tmp_path / "bd.bin")
        store.register_vertex(4)  # a slot the record below predates
        store.put_columns(
            2,
            np.array([1, 1, 0], dtype=DISTANCE_DTYPE),
            np.array([1, 2, 1], dtype=SIGMA_DTYPE),
            np.array([0.0, 0.25, 0.0], dtype=DELTA_DTYPE),
        )
        record = store.get(2)
        assert record.distance == {0: 1, 1: 1, 2: 0}
        assert record.sigma == {0: 1, 1: 2, 2: 1}
        store.close()

    def test_rows_open_by_source_slot_in_source_order(self, kind, grown, tmp_path):
        # The kernel's batch sweep finds and opens rows by vertex slot:
        # ``source_slots`` follows ``sources()`` (also where adoption order
        # and slot order differ, and after a failed batch's births are
        # forgotten), and ``sweep_rows`` refuses a slot that is no source.
        store = column_store(kind, grown, tmp_path / "bd.bin")
        marks = (len(store.vertex_index), len(store))
        for vertex in (10, 11):
            store.register_vertex(vertex)
        for vertex in (11, 10):
            store.add_source(vertex)
        index = store.vertex_index
        slots = store.source_slots()
        assert slots.tolist() == [index.slot(source) for source in store.sources()]
        assert store.sweep_rows(slots).tolist() == [
            store.row_of_source_slot(slot) for slot in slots.tolist()
        ]
        store.forget_since(*marks)
        assert store.source_slots().tolist() == [
            index.slot(source) for source in store.sources()
        ]
        store.register_vertex(12)
        with pytest.raises(KeyError):
            store.sweep_rows([index.slot(12)])
        store.close()


class TestPartition:
    def test_balanced_sizes(self):
        partitions = partition_sources(list(range(10)), 3)
        assert [len(p) for p in partitions] == [4, 3, 3]
        assert [p.worker_id for p in partitions] == [0, 1, 2]

    def test_union_is_disjoint_and_complete(self):
        sources = list(range(17))
        partitions = partition_sources(sources, 4)
        seen = [v for p in partitions for v in p]
        assert sorted(seen) == sources

    def test_more_workers_than_sources(self):
        partitions = partition_sources([1, 2], 5)
        assert sum(len(p) for p in partitions) == 2
        assert len(partitions) == 5

    def test_invalid_worker_count(self):
        with pytest.raises(PartitionError):
            partition_sources([1], 0)
