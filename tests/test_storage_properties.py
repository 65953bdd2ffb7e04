"""Property-based and failure-injection tests for the storage layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.algorithms.brandes import SourceData
from repro.exceptions import StoreCorruptedError
from repro.storage import DiskBDStore, InMemoryBDStore, VertexIndex
from repro.storage.codec import decode_record_arrays, encode_record_arrays, record_size


@st.composite
def source_records(draw):
    """Random (vertex set, SourceData) pairs with consistent reachability."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertices = list(range(n))
    source = draw(st.sampled_from(vertices))
    data = SourceData(source=source)
    data.distance[source] = 0
    data.sigma[source] = 1
    data.delta[source] = 0.0
    for vertex in vertices:
        if vertex == source:
            continue
        reachable = draw(st.booleans())
        if not reachable:
            continue
        data.distance[vertex] = draw(st.integers(min_value=1, max_value=30))
        data.sigma[vertex] = draw(st.integers(min_value=1, max_value=10_000))
        data.delta[vertex] = draw(
            st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)
        )
    return vertices, data


class TestCodecProperties:
    @given(source_records())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip(self, record):
        vertices, data = record
        index = VertexIndex(vertices)
        capacity = len(vertices) + 3
        decoded = decode_record_arrays(
            *encode_record_arrays(data, index, capacity), data.source, index
        )
        assert decoded.distance == data.distance
        assert decoded.sigma == data.sigma
        assert decoded.delta == pytest.approx(data.delta)

    @given(source_records())
    @settings(max_examples=30, deadline=None)
    def test_disk_store_round_trip(self, record):
        vertices, data = record
        store = DiskBDStore(vertices)
        try:
            store.put(data)
            loaded = store.get(data.source)
            assert loaded.distance == data.distance
            assert loaded.sigma == data.sigma
            assert loaded.delta == pytest.approx(data.delta)
        finally:
            store.close()

    @given(source_records())
    @settings(max_examples=30, deadline=None)
    def test_memory_and_disk_endpoint_peek_agree(self, record):
        vertices, data = record
        memory = InMemoryBDStore()
        disk = DiskBDStore(vertices)
        try:
            memory.put(data)
            disk.put(data)
            for u in vertices[:3]:
                for v in vertices[-3:]:
                    assert memory.endpoint_distances(
                        data.source, u, v
                    ) == disk.endpoint_distances(data.source, u, v)
        finally:
            disk.close()


class TestFailureInjection:
    def test_truncated_file_is_detected_on_reopen(self, tmp_path):
        store = DiskBDStore([0, 1, 2], path=tmp_path / "bd.bin", capacity=4)
        store.put(_simple_record(0, [0, 1, 2]))
        store.close()
        with open(tmp_path / "bd.bin", "r+b") as handle:
            handle.truncate(record_size(4) // 2)
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(tmp_path / "bd.bin")

    def test_out_of_range_values_rejected_on_write(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        overflowing = _simple_record(0, [0, 1])
        overflowing.distance[1] = 2**15  # one past the int16 maximum
        with pytest.raises(StoreCorruptedError):
            store.put(overflowing)
        store.close()


def _simple_record(source, vertices):
    data = SourceData(source=source)
    for i, vertex in enumerate(vertices):
        data.distance[vertex] = i
        data.sigma[vertex] = 1
        data.delta[vertex] = 0.0
    return data
