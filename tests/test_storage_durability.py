"""Durability tests for the disk store: header, reopen, growth, corruption.

These cover the reopen contract introduced with the versioned on-disk
format: a store written by one process can be closed, reopened by path
(never truncated), and must serve exactly the records that were saved —
including after capacity growth — while corrupted or truncated files are
rejected loudly instead of being misread.
"""

import os
import pickle
import struct

import pytest

from repro.algorithms import brandes_betweenness
from repro.algorithms.brandes import SourceData
from repro.core import IncrementalBetweenness
from repro.exceptions import (
    StoreCorruptedError,
    StoreExistsError,
    StoreVersionError,
)
from repro.storage import DiskBDStore
from repro.storage.codec import MAX_DISTANCE, MAX_SIGMA, record_size
from repro.storage.header import (
    HEADER_SIZE,
    STORE_MAGIC,
    encode_metadata,
    metadata_crc,
    FLAG_DIRECTED,
    pack_header,
    unpack_header,
)

from tests.helpers import assert_scores_equal


def make_data(source, entries):
    data = SourceData(source=source)
    for vertex, (d, sigma, delta) in entries.items():
        data.distance[vertex] = d
        data.sigma[vertex] = sigma
        data.delta[vertex] = delta
    return data


class TestHeader:
    def test_pack_unpack_round_trip(self):
        raw = pack_header(capacity=37, meta_size=120, meta_crc=0xDEADBEEF)
        assert len(raw) == HEADER_SIZE
        assert unpack_header(raw) == (37, 120, 0xDEADBEEF, 0)

    def test_directed_flag_round_trip(self):
        raw = pack_header(4, 0, 0, flags=FLAG_DIRECTED)
        assert unpack_header(raw) == (4, 0, 0, FLAG_DIRECTED)

    def test_unknown_flags_rejected(self):
        raw = pack_header(4, 0, 0, flags=0x80)
        with pytest.raises(StoreVersionError):
            unpack_header(raw)

    def test_short_header_rejected(self):
        with pytest.raises(StoreCorruptedError):
            unpack_header(b"RB")

    def test_bad_magic_rejected(self):
        raw = bytearray(pack_header(4, 0, 0))
        raw[:4] = b"NOPE"
        with pytest.raises(StoreCorruptedError):
            unpack_header(bytes(raw))

    def test_future_version_rejected(self):
        raw = bytearray(pack_header(4, 0, 0))
        struct.pack_into("<H", raw, 4, 99)
        with pytest.raises(StoreVersionError):
            unpack_header(bytes(raw))


class TestCreateRefusesClobber:
    def test_existing_nonempty_file_is_refused(self, tmp_path):
        target = tmp_path / "precious.bin"
        target.write_bytes(b"do not destroy me")
        with pytest.raises(StoreExistsError):
            DiskBDStore([0, 1], path=target)
        assert target.read_bytes() == b"do not destroy me"

    def test_existing_store_is_refused_and_kept(self, tmp_path):
        target = tmp_path / "bd.bin"
        store = DiskBDStore([0, 1], path=target)
        store.put(make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)}))
        store.close()
        with pytest.raises(StoreExistsError):
            DiskBDStore([0, 1], path=target)
        reopened = DiskBDStore.open(target)
        assert reopened.get(0).distance == {0: 0, 1: 1}
        reopened.close()

    def test_open_or_create_dispatches_on_content(self, tmp_path):
        target = tmp_path / "bd.bin"
        created = DiskBDStore.open_or_create([0, 1], target)
        created.put(make_data(1, {1: (0, 1, 0.0), 0: (1, 2, 0.5)}))
        created.close()
        reopened = DiskBDStore.open_or_create([0, 1], target)
        assert reopened.get(1).sigma == {1: 1, 0: 2}
        reopened.close()


class TestReopenRoundTrip:
    def test_records_survive_close_and_reopen(self, two_triangles_bridge, tmp_path):
        result = brandes_betweenness(two_triangles_bridge, collect_source_data=True)
        store = DiskBDStore(
            two_triangles_bridge.vertex_list(), path=tmp_path / "bd.bin"
        )
        for data in result.source_data.values():
            store.put(data)
        capacity = store.capacity
        store.close()

        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert reopened.capacity == capacity
        assert sorted(reopened.sources()) == sorted(result.source_data)
        for source, expected in result.source_data.items():
            loaded = reopened.get(source)
            assert loaded.distance == expected.distance
            assert loaded.sigma == expected.sigma
            assert loaded.delta == expected.delta
        reopened.close()

    @pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
    def test_in_place_repair_survives_reopen(self, tmp_path, grown):
        # The kernel repairs records only through the mapped views; those
        # bytes must be what close() leaves in the file, also after growth
        # replaced the file and its mapping.
        store = DiskBDStore([0, 1, 2], path=tmp_path / "bd.bin", capacity=3)
        if grown:
            store.add_source(3)
        (row,) = store.sweep_rows([0])
        distance, sigma, delta = (m[row] for m in store.column_matrices())
        distance[1], sigma[1], delta[1] = 1, 3, 0.5
        generation = store.generation
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        record = reopened.get(0)
        assert (record.distance, record.sigma, record.delta) == (
            {0: 0, 1: 1}, {0: 1, 1: 3}, {0: 0.0, 1: 0.5}
        )
        assert reopened.generation == generation
        reopened.close()

    def test_reopened_store_resumes_into_exact_framework(
        self, two_triangles_bridge, tmp_path
    ):
        # Build, stream a few updates, close — then reopen by path and check
        # the resumed scores are *bit-identical* to a from-scratch rebuild.
        store = DiskBDStore(
            two_triangles_bridge.vertex_list(), path=tmp_path / "bd.bin"
        )
        ibc = IncrementalBetweenness(two_triangles_bridge, store=store)
        ibc.add_edge(0, 4)
        ibc.remove_edge(2, 3)
        graph_after = ibc.graph.copy()
        store.close()

        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        resumed = IncrementalBetweenness.from_store(graph_after, reopened)
        reference = brandes_betweenness(graph_after)
        assert resumed.vertex_betweenness() == reference.vertex_scores
        assert resumed.edge_betweenness() == reference.edge_scores
        # ... and stays exact under further updates.
        resumed.add_edge(1, 5)
        assert_scores_equal(
            resumed.vertex_betweenness(),
            brandes_betweenness(resumed.graph).vertex_scores,
        )
        reopened.close()

    def test_growth_then_reopen(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin", capacity=2)
        store.put(make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)}))
        for vertex in range(2, 9):  # force several capacity rebuilds
            store.add_source(vertex)
        grown_capacity = store.capacity
        assert grown_capacity > 2
        store.close()

        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert reopened.capacity == grown_capacity
        assert sorted(reopened.sources()) == list(range(9))
        assert reopened.get(0).distance == {0: 0, 1: 1}
        assert reopened.get(7).distance == {7: 0}
        reopened.close()

    def test_non_source_slots_survive_growth(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin", capacity=2, sources=[0])
        store.put(make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)}))
        store.register_vertex(2)  # grows: capacity 2 cannot hold a third slot
        assert store.capacity > 2
        assert list(store.sources()) == [0]
        assert store.get(0).distance == {0: 0, 1: 1}
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert list(reopened.sources()) == [0]
        assert reopened.endpoint_distances(0, 1, 2) == (1, None)
        reopened.close()


class TestCorruptionRejection:
    def _fresh_store(self, tmp_path):
        store = DiskBDStore([0, 1, 2], path=tmp_path / "bd.bin")
        store.put(make_data(0, {0: (0, 1, 0.0), 2: (1, 1, 0.0)}))
        store.close()
        return tmp_path / "bd.bin"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DiskBDStore.open(tmp_path / "nothing.bin")

    def test_short_header(self, tmp_path):
        target = tmp_path / "bd.bin"
        target.write_bytes(STORE_MAGIC + b"\x01")
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(target)

    def test_foreign_file(self, tmp_path):
        target = tmp_path / "bd.bin"
        target.write_bytes(b"\x00" * 4096)
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(target)

    def test_truncated_record_area(self, tmp_path):
        path = self._fresh_store(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(HEADER_SIZE + 10)
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(path)

    def test_metadata_crc_mismatch(self, tmp_path):
        path = self._fresh_store(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the metadata block
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(path)

    def test_metadata_inconsistent_with_capacity(self, tmp_path):
        target = tmp_path / "bd.bin"
        # Hand-craft a file whose metadata lists more vertices than capacity.
        meta = encode_metadata([0, 1, 2, 3], [0], 0, [0])
        from repro.storage.codec import empty_record

        body = empty_record(2) * 2
        target.write_bytes(
            pack_header(2, len(meta), metadata_crc(meta)) + body + meta
        )
        with pytest.raises(StoreCorruptedError):
            DiskBDStore.open(target)


class TestOverflowGuards:
    def test_distance_overflow_raises(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        bad = make_data(0, {0: (0, 1, 0.0), 1: (MAX_DISTANCE + 1, 1, 0.0)})
        with pytest.raises(StoreCorruptedError):
            store.put(bad)
        store.close()

    def test_negative_distance_raises(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        bad = make_data(0, {0: (0, 1, 0.0), 1: (-1, 1, 0.0)})
        with pytest.raises(StoreCorruptedError):
            store.put(bad)
        store.close()

    def test_sigma_overflow_raises(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        bad = make_data(0, {0: (0, 1, 0.0), 1: (1, MAX_SIGMA + 1, 0.0)})
        with pytest.raises(StoreCorruptedError):
            store.put(bad)
        store.close()

    def test_max_values_round_trip(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        extreme = make_data(0, {0: (0, 1, 0.0), 1: (MAX_DISTANCE, MAX_SIGMA, 2.0)})
        store.put(extreme)
        loaded = store.get(0)
        assert loaded.distance[1] == MAX_DISTANCE
        assert loaded.sigma[1] == MAX_SIGMA
        store.close()

    def test_failed_put_leaves_previous_record_intact(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        good = make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)})
        store.put(good)
        bad = make_data(0, {0: (0, 1, 0.0), 1: (MAX_DISTANCE + 1, 1, 0.0)})
        with pytest.raises(StoreCorruptedError):
            store.put(bad)
        assert store.get(0).distance == {0: 0, 1: 1}
        store.close()


class TestAccountingAndModes:
    def test_creation_writes_each_record_once(self, tmp_path):
        # The old formatter wrote every source record twice (an empty record
        # immediately overwritten by an identity record); total bytes written
        # during creation must not exceed the file that results.
        store = DiskBDStore(list(range(20)), path=tmp_path / "bd.bin")
        assert store.bytes_written <= store.path.stat().st_size
        store.close()

    def test_generation_bumps_once_per_dirty_session(self, tmp_path):
        store = DiskBDStore([0, 1], path=tmp_path / "bd.bin")
        created = store.generation
        store.put(make_data(0, {0: (0, 1, 0.0)}))
        store.put(make_data(1, {1: (0, 1, 0.0)}))
        assert store.generation == created + 1  # one bump per session, not per put
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert reopened.generation == created + 1
        reopened.put(make_data(0, {0: (0, 1, 0.0), 1: (1, 1, 0.0)}))
        assert reopened.generation == created + 2
        reopened.close()

    def test_sweep_rows_charges_each_record_read_and_written(self, tmp_path):
        # An in-place repair writes the records it opens; the charge is
        # taken once, when they are opened.  The first sweep marks the
        # file dirty (a header write), so the second one is measured.
        store = DiskBDStore([0, 1, 2], path=tmp_path / "bd.bin", capacity=3)
        store.sweep_rows([1])
        read, written = store.bytes_read, store.bytes_written
        store.sweep_rows([0, 2])
        record = record_size(store.capacity)
        assert store.bytes_read - read == 2 * record
        assert store.bytes_written - written == 2 * record
        store.close()


class TestFlushIsDurable:
    """``flush()`` must fsync the file: msync covers only the mapped record
    area, and the metadata block is written past it through the file."""

    @staticmethod
    def _record_fsyncs(monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        monkeypatch.setattr("repro.storage.disk.os.fsync", recording_fsync)
        return synced

    @staticmethod
    def _identity(path):
        stat = os.stat(path)
        return (stat.st_dev, stat.st_ino)

    def test_flush_fsyncs_the_store_file(self, tmp_path, monkeypatch):
        store = DiskBDStore([0, 1, 2], path=tmp_path / "bd.bin")
        store.put(make_data(0, {0: (0, 1, 0.0), 2: (1, 1, 0.0)}))
        store.add_source(3)  # rewrites the metadata block past the map
        synced = self._record_fsyncs(monkeypatch)
        store.flush()
        assert self._identity(store.path) in synced
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        assert sorted(reopened.sources()) == [0, 1, 2, 3]
        reopened.close()

    def test_serial_checkpoint_fsyncs_its_disk_store(
        self, two_triangles_bridge, tmp_path, monkeypatch
    ):
        store = DiskBDStore(
            two_triangles_bridge.vertex_list(), path=tmp_path / "bd.bin"
        )
        ibc = IncrementalBetweenness(two_triangles_bridge, store=store)
        ibc.add_edge(0, 4)
        synced = self._record_fsyncs(monkeypatch)
        ibc.checkpoint(tmp_path / "ck.bin")
        # The sidecar names the store file, so the store is synced too.
        assert self._identity(store.path) in synced
        store.close()
