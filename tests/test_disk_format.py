"""The disk store's file format: rows of owned sources (version 2), and the
version-1 files (one record per vertex slot) that still open in place.

``tests/data/golden/disk-v1.bin`` was written by the version-1 code
(``generate.py`` beside it): a store restricted to a partition listed out of
slot order, with a stream-born vertex adopted; ``disk-v1.json`` holds its
vertex order, source order and records.
"""

import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.storage import ArrayBDStore, DiskBDStore
from repro.storage.codec import record_size
from repro.storage.header import HEADER_SIZE, STORE_VERSION, encode_metadata

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = json.loads((GOLDEN / "disk-v1.json").read_text())


def _version(path):
    return struct.unpack_from("<H", path.read_bytes(), 4)[0]


def _records(store):
    return {
        str(source): {
            name: [[v, x] for v, x in sorted(getattr(store.get(source), name).items())]
            for name in ("distance", "sigma", "delta")
        }
        for source in store.sources()
    }


@pytest.fixture
def v1_copy(tmp_path):
    target = tmp_path / "disk-v1.bin"
    shutil.copy2(GOLDEN / "disk-v1.bin", target)
    return target


class TestVersionOneFiles:
    def test_golden_is_a_version_one_file(self):
        assert _version(GOLDEN / "disk-v1.bin") == 1

    def test_opens_with_the_same_order_and_records(self, v1_copy):
        before = v1_copy.read_bytes()
        store = DiskBDStore.open(v1_copy)
        try:
            assert store.vertex_index.vertices() == EXPECTED["vertices"]
            assert list(store.sources()) == EXPECTED["sources"]
            assert _records(store) == EXPECTED["records"]
            # Rows are the slots: the sparse partition spans the whole area.
            assert store.row_capacity == store.capacity
        finally:
            store.close()
        assert v1_copy.read_bytes() == before  # reading writes nothing

    def test_first_write_leaves_a_version_two_header_in_place(self, v1_copy):
        size = v1_copy.stat().st_size
        store = DiskBDStore.open(v1_copy)
        source = EXPECTED["sources"][0]
        store.put(store.get(source))
        store.close()
        assert _version(v1_copy) == STORE_VERSION == 2
        reopened = DiskBDStore.open(v1_copy)
        try:
            assert list(reopened.sources()) == EXPECTED["sources"]
            assert _records(reopened) == EXPECTED["records"]
        finally:
            reopened.close()
        # No record moved: only the metadata block (now with its row map)
        # was rewritten after the unchanged record area.
        assert v1_copy.stat().st_size > size

    def test_a_source_added_to_a_version_one_file_takes_a_free_row(self, v1_copy):
        store = DiskBDStore.open(v1_copy)
        store.add_source(1)
        assert list(store.sources()) == EXPECTED["sources"] + [1]
        store.close()
        reopened = DiskBDStore.open(v1_copy)
        try:
            assert list(reopened.sources()) == EXPECTED["sources"] + [1]
            assert reopened.get(1).distance == {1: 0}
            records = _records(reopened)
            del records["1"]
            assert records == EXPECTED["records"]
        finally:
            reopened.close()


class TestOwnedRows:
    def test_restricted_file_holds_only_the_owned_rows(self, tmp_path):
        """750 owned sources over 1,500 vertices: 750 rows of the 1,875
        column capacity, not 1,875 slot records (63,287,742 B before)."""
        store = DiskBDStore(range(1500), path=tmp_path / "bd.bin", sources=range(750))
        try:
            assert (store.capacity, store.row_capacity) == (1875, 750)
            meta = encode_metadata(range(1500), range(750), 0, rows=range(750))
            expected = HEADER_SIZE + 750 * record_size(1875) + len(meta)
            assert store.path.stat().st_size == expected == 25_320_869
            assert store.bytes_written == expected
        finally:
            store.close()

    def test_initial_rows_follow_slot_order(self, tmp_path):
        store = DiskBDStore(range(8), path=tmp_path / "bd.bin", sources=[6, 1, 4])
        assert list(store.sources()) == [1, 4, 6]
        store.add_source(2)  # a later source is appended
        assert list(store.sources()) == [1, 4, 6, 2]
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        try:
            assert list(reopened.sources()) == [1, 4, 6, 2]
            assert reopened.get(2).distance == {2: 0}
        finally:
            reopened.close()

    def test_row_growth_replaces_the_file_and_keeps_records(self, tmp_path):
        store = DiskBDStore(range(4), path=tmp_path / "bd.bin", sources=[0])
        rows = store.row_capacity
        distance, sigma, delta = store.record_columns(0, writable=True)
        distance[1], sigma[1], delta[1] = 1, 2, 0.5
        for vertex in range(4, 4 + rows):  # past the row and column capacity
            store.add_source(vertex)
        assert store.row_capacity > rows and store.capacity > 4
        assert not (tmp_path / "bd.bin.grow").exists()
        store.close()
        reopened = DiskBDStore.open(tmp_path / "bd.bin")
        try:
            assert len(reopened) == 1 + rows
            record = reopened.get(0)
            assert (record.distance, record.sigma, record.delta) == (
                {0: 0, 1: 1}, {0: 1, 1: 2}, {0: 0.0, 1: 0.5}
            )
            assert os.path.getsize(reopened.path) == (
                HEADER_SIZE
                + reopened.row_capacity * record_size(reopened.capacity)
                + len(
                    encode_metadata(
                        reopened.vertex_index.vertices(),
                        list(reopened.sources()),
                        reopened.generation,
                        rows=range(len(reopened)),
                    )
                )
            )
        finally:
            reopened.close()

    def test_same_matrices_as_the_ram_store(self, tmp_path):
        """One layout: the disk store's rows equal the RAM store's for the
        same construction and writes."""
        stores = [
            ArrayBDStore(range(6), sources=[3, 0, 5]),
            DiskBDStore(range(6), path=tmp_path / "bd.bin", sources=[3, 0, 5]),
        ]
        for store in stores:
            store.put_columns(0, np.array([0, 1], np.int16), np.array([1, 1]), np.array([0.0, 2.5]))
            store.register_vertex(9)
            store.add_source(9)
        ram, disk = ([m[: len(s)] for m in s.column_matrices()] for s in stores)
        for left, right in zip(ram, disk):
            np.testing.assert_array_equal(left, right)
        assert list(stores[0].sources()) == list(stores[1].sources()) == [0, 3, 5, 9]
        for store in stores:
            store.close()
