"""The disk store's file format: rows of owned sources in three planes
(version 3), and the interleaved files of versions 1 and 2, which opening
refuses and ``repro migrate`` converts into a version-3 file.

``tests/data/golden/disk-v1.bin`` was written by the version-1 code and
``disk-v2.bin`` by the version-2 code (``generate.py`` beside them): a store
restricted to a partition listed out of slot order, with a stream-born
vertex adopted; ``disk-v1.json`` / ``disk-v2.json`` hold its vertex order,
source order and records.
"""

import json
import multiprocessing
import os
import pickle
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.exceptions import StoreVersionError
from repro.storage import ArrayBDStore, DiskBDStore
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    record_size,
)
from repro.storage.header import (
    HEADER_SIZE,
    STORE_VERSION,
    encode_metadata,
    plane_offsets,
    read_layout,
)


GOLDEN = Path(__file__).parent / "data" / "golden"
LEGACY = {1: "disk-v1", 2: "disk-v2"}


def _version(path):
    return struct.unpack_from("<H", path.read_bytes(), 4)[0]


def _layout(path):
    with open(path, "rb") as file:
        return read_layout(file, path.stat().st_size, record_size)


def _legacy_layout(path):
    """``(capacity, row_capacity, sources in row order, rows, generation)``
    of a version-1 or version-2 file, read straight from its bytes (in
    version 1 the row capacity is the capacity and a source's row its slot)."""
    raw = path.read_bytes()
    _magic, version, _flags, capacity, meta_size, _crc, row_capacity = (
        struct.unpack_from("<4sHHQQIQ", raw)
    )
    if version == 1:
        row_capacity = capacity
    start = HEADER_SIZE + row_capacity * record_size(capacity)
    meta = pickle.loads(raw[start : start + meta_size])
    slot = {vertex: i for i, vertex in enumerate(meta["vertices"])}
    rows = meta.get("rows") or [slot[s] for s in meta["sources"]]
    placed = sorted(zip(rows, meta["sources"]))
    return (
        capacity,
        row_capacity,
        [source for _, source in placed],
        [row for row, _ in placed],
        meta["generation"],
    )


def _records(store):
    return {
        str(source): {
            name: [[v, x] for v, x in sorted(getattr(store.get(source), name).items())]
            for name in ("distance", "sigma", "delta")
        }
        for source in store.sources()
    }


def _rows(store):
    index = store.vertex_index
    return [store.row_of_source_slot(index.slot(s)) for s in store.sources()]


def _write_version_two(path):
    """Rewrite a version-3 store file as the version-2 file of the same
    store: each row's three plane segments interleaved into one record
    (distance, sigma, delta), under a version-2 header."""
    layout = _layout(path)
    rows, columns = layout.row_capacity, layout.capacity
    raw = bytearray(path.read_bytes())
    planes = {
        dtype: np.frombuffer(raw, dtype, rows * columns, offset)
        .reshape(rows, columns)
        .view(np.uint8)
        for offset, dtype in zip(
            plane_offsets(rows, columns), (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE)
        )
    }
    records = np.concatenate(
        [planes[dtype] for dtype in (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE)],
        axis=1,
    ).tobytes()
    raw[HEADER_SIZE : HEADER_SIZE + len(records)] = records
    struct.pack_into("<H", raw, 4, 2)
    path.write_bytes(bytes(raw))


def _open_and_report(path, barrier, results):
    barrier.wait()  # every process opens the legacy file at once
    try:
        DiskBDStore.open(path).close()
        results.put("opened")
    except StoreVersionError as exc:
        results.put(str(exc))


@pytest.fixture(params=sorted(LEGACY), ids=lambda v: f"v{v}")
def legacy(request, tmp_path):
    """``(version, copy of the golden file, its expected orders and records)``."""
    name = LEGACY[request.param]
    target = tmp_path / f"{name}.bin"
    shutil.copy2(GOLDEN / f"{name}.bin", target)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    return request.param, target, expected


class TestLegacyFiles:
    """A legacy file opens after ``repro migrate`` converted it."""

    def test_goldens_carry_their_versions(self):
        for version, name in LEGACY.items():
            assert _version(GOLDEN / f"{name}.bin") == version

    def test_opens_with_the_same_order_records_rows_and_generation(self, legacy):
        version, path, expected = legacy
        _capacity, _row_capacity, _sources, rows, generation = _legacy_layout(path)
        assert cli.main(["migrate", str(path)]) == 0
        store = DiskBDStore.open(path)
        try:
            assert store.vertex_index.vertices() == expected["vertices"]
            assert list(store.sources()) == expected["sources"]
            assert _records(store) == expected["records"]
            assert _rows(store) == rows
            assert store.generation == generation
            if version == 1:
                # Rows are the slots: the sparse partition spans the area.
                assert store.row_capacity == store.capacity
        finally:
            store.close()

    def test_migrate_writes_a_version_three_file(self, legacy):
        _version_before, path, expected = legacy
        size = path.stat().st_size
        capacity, row_capacity, sources, rows, generation = _legacy_layout(path)
        assert cli.main(["migrate", str(path)]) == 0
        assert _version(path) == STORE_VERSION == 3
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        after = _layout(path)
        assert (after.sources, after.rows, after.generation) == (
            sources, rows, generation
        )
        assert (after.capacity, after.row_capacity) == (capacity, row_capacity)
        reopened = DiskBDStore.open(path)
        try:
            assert list(reopened.sources()) == expected["sources"]
            assert _records(reopened) == expected["records"]
        finally:
            reopened.close()
        # Same record area; a version-1 file gains its row map's metadata.
        assert path.stat().st_size >= size

    def test_a_source_added_to_a_legacy_file_takes_a_free_row(self, legacy):
        _version_before, path, expected = legacy
        assert cli.main(["migrate", str(path)]) == 0
        store = DiskBDStore.open(path)
        store.add_source(1)
        assert list(store.sources()) == expected["sources"] + [1]
        store.close()
        reopened = DiskBDStore.open(path)
        try:
            assert list(reopened.sources()) == expected["sources"] + [1]
            assert reopened.get(1).distance == {1: 0}
            records = _records(reopened)
            del records["1"]
            assert records == expected["records"]
        finally:
            reopened.close()


class TestOpeningNeverWrites:
    """Opening a legacy file refuses it and writes nothing, however many
    processes open it at once."""

    def test_migration_is_the_inverse_of_the_version_two_layout(self, tmp_path):
        # Validates the test's own writer: migrating the golden and writing
        # it back as version 2 gives back the golden's bytes.
        path = tmp_path / "disk-v2.bin"
        shutil.copy2(GOLDEN / "disk-v2.bin", path)
        assert cli.main(["migrate", str(path)]) == 0
        _write_version_two(path)
        assert path.read_bytes() == (GOLDEN / "disk-v2.bin").read_bytes()

    def test_concurrent_opens_are_all_refused(self, legacy):
        _version_before, path, _expected = legacy
        before = path.read_bytes()
        context = multiprocessing.get_context("fork")
        count = 4
        barrier, results = context.Barrier(count), context.Queue()
        processes = [
            context.Process(target=_open_and_report, args=(path, barrier, results))
            for _ in range(count)
        ]
        for process in processes:
            process.start()
        reports = [results.get(timeout=30) for _ in processes]
        for process in processes:
            process.join(timeout=60)
        assert [process.exitcode for process in processes] == [0] * count
        for report in reports:
            assert f"repro migrate {path}" in report
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


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
        (row,) = store.sweep_rows([0])
        distance, sigma, delta = (m[row] for m in store.column_matrices())
        distance[1], sigma[1], delta[1] = 1, 2, 0.5
        for vertex in range(4, 4 + rows):  # past the row and column capacity
            store.add_source(vertex)
        assert store.row_capacity > rows and store.capacity > 4
        assert not list(tmp_path.glob("*.grow"))
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

    def test_row_growth_replaces_a_stale_grow_sibling(self, tmp_path):
        """The file's one writer grows it through ``<file>.grow``: a sibling
        left by a growth that was killed is reused, and nothing remains."""
        store = DiskBDStore(range(4), path=tmp_path / "bd.bin", sources=[0])
        (tmp_path / "bd.bin.grow").write_bytes(b"left by a killed growth")
        added = list(range(4, 4 + store.row_capacity))  # past the row capacity
        for vertex in added:
            store.add_source(vertex)
        try:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bd.bin"]
        finally:
            store.close()
        with DiskBDStore.open(tmp_path / "bd.bin") as reopened:
            assert list(reopened.sources()) == [0] + added

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

    @pytest.mark.parametrize("kind", ["ram", "disk"])
    def test_forget_since_drops_a_failed_batchs_births(self, kind, tmp_path):
        """The undo of a failed batch's births: the born slots and sources
        go, their rows and columns are empty again, and (on disk) the file
        reopens with the pre-batch index and row map."""
        store = (
            ArrayBDStore(range(4), sources=[2, 0])
            if kind == "ram"
            else DiskBDStore(range(4), path=tmp_path / "bd.bin", sources=[2, 0])
        )
        store.put_columns(0, np.array([0, 1], np.int16), np.array([1, 1]), np.array([0.0, 2.5]))
        before = _records(store)
        store.add_source(3)  # a pre-existing vertex adopted by the batch
        for vertex in (7, 8):
            store.register_vertex(vertex)
            store.add_source(vertex)
        (row,) = store.sweep_rows([0])
        distance, sigma, delta = (m[row] for m in store.column_matrices())
        distance[5], sigma[5], delta[5] = 2, 1, 0.5  # a repair reached 7
        store.forget_since(4, 2)
        assert store.vertex_index.vertices() == [0, 1, 2, 3]
        assert list(store.sources()) == [0, 2] and 3 not in store
        assert _records(store) == before
        matrices = [m[:, 4:] for m in store.column_matrices()]
        assert not (matrices[0] != -1).any()
        assert not matrices[1].any() and not matrices[2].any()
        with pytest.raises(KeyError):
            store.row_of_source_slot(3)
        store.register_vertex(9)  # the freed slot is taken again
        store.add_source(9)
        assert store.vertex_index.slot(9) == 4
        assert store.get(9).distance == {9: 0}
        if kind == "disk":
            store.close()
            store = DiskBDStore.open(tmp_path / "bd.bin")
            assert store.vertex_index.vertices() == [0, 1, 2, 3, 9]
            assert list(store.sources()) == [0, 2, 9]
            assert _rows(store) == [0, 1, 2]
        store.close()


def test_matrices_are_the_files_contiguous_planes(tmp_path):
    """Version 3: each matrix is one C-contiguous plane of the file, so a
    pair ``(row, slot)`` has the flat id ``row * capacity + slot`` in all
    three, on disk as in RAM."""
    from repro.storage.header import plane_offsets

    store = DiskBDStore(range(5), path=tmp_path / "bd.bin", sources=[1, 3])
    store.put_columns(3, np.array([2, 1, 3, 0], np.int16), np.array([1, 2, 3, 1]),
                      np.array([0.5, 1.5, 0.0, 0.0]))
    matrices = store.column_matrices()
    shape = (store.row_capacity, store.capacity)
    for matrix in matrices:
        assert matrix.shape == shape and matrix.flags.c_contiguous
    store.flush()
    raw = store.path.read_bytes()
    for matrix, offset in zip(matrices, plane_offsets(*shape)):
        on_disk = np.frombuffer(raw, matrix.dtype, matrix.size, offset)
        np.testing.assert_array_equal(on_disk, matrix.reshape(-1))
    store.close()
