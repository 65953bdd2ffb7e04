"""Unit tests for the worker data plane's lowest layers.

Covers the shared-memory segments (:mod:`repro.storage.buffers`) and the
dispatch plane (:mod:`repro.parallel.dataplane`):

* descriptor round-trips and size accounting,
* ownership (creators unlink, attachers only close),
* the crash-reclaim sweep for segments owned by a SIGKILLed process,
* ring append/rotate/read and label-table replication.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import EdgeUpdate
from repro.exceptions import StorageError
from repro.parallel.dataplane import (
    DEFAULT_RING_CAPACITY,
    LabelTable,
    RingReader,
    UpdateRing,
    decode_rows,
    encode_batch,
)
from repro.storage.buffers import (
    ShmAllocator,
    ShmDescriptor,
    active_segments,
    attach,
    owned_segment_names,
    reclaim_process_segments,
    release_all_owned,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


class TestShmDescriptor:
    def test_payload_round_trip(self):
        descriptor = ShmDescriptor(
            name="repro_test", dtype="<f8", shape=(3, 4), generation=7
        )
        rebuilt = ShmDescriptor.from_payload(descriptor.to_payload())
        assert rebuilt == descriptor

    def test_nbytes_matches_numpy(self):
        descriptor = ShmDescriptor(name="x", dtype="<i8", shape=(5, 3))
        assert descriptor.nbytes == np.empty((5, 3), dtype="<i8").nbytes

    def test_payload_is_plain_data(self):
        payload = ShmDescriptor(name="x", dtype="<i4", shape=(2,)).to_payload()
        assert payload == {
            "name": "x", "dtype": "<i4", "shape": [2], "generation": 0
        }

    def test_payload_without_generation_is_generation_zero(self):
        rebuilt = ShmDescriptor.from_payload(
            {"name": "x", "dtype": "<i8", "shape": [3, 2]}
        )
        assert rebuilt == ShmDescriptor(name="x", dtype="<i8", shape=(3, 2))


class TestShmOwnership:
    def test_attacher_sees_owner_writes(self):
        owner = ShmAllocator(hint="t").zeros((8,), np.float64)
        try:
            owner.array[:] = np.arange(8.0)
            attached = attach(owner.descriptor())
            assert np.array_equal(attached.array, np.arange(8.0))
            attached.release()
        finally:
            owner.release()

    def test_attach_is_read_only_by_default(self):
        owner = ShmAllocator(hint="t").zeros((4,), np.int64)
        try:
            attached = attach(owner.descriptor())
            with pytest.raises((ValueError, RuntimeError)):
                attached.array[0] = 1
            attached.release()
            writable = attach(owner.descriptor(), writable=True)
            writable.array[0] = 99
            writable.release()
            assert owner.array[0] == 99
        finally:
            owner.release()

    def test_attacher_release_does_not_unlink(self):
        owner = ShmAllocator(hint="t").zeros((4,), np.int64)
        try:
            descriptor = owner.descriptor()
            attach(descriptor).release()
            # The segment must still be attachable: only the owner unlinks.
            again = attach(descriptor)
            again.release()
        finally:
            owner.release()

    def test_owner_release_unlinks(self):
        owner = ShmAllocator(hint="t").zeros((4,), np.int64)
        descriptor = owner.descriptor()
        owner.release()
        with pytest.raises(StorageError):
            attach(descriptor)

    def test_size_mismatch_refused(self):
        owner = ShmAllocator(hint="t").zeros((4,), np.int64)
        try:
            descriptor = ShmDescriptor(
                name=owner.segment_name, dtype="<i8", shape=(1 << 20,)
            )
            with pytest.raises(StorageError):
                attach(descriptor)
        finally:
            owner.release()

    @pytest.mark.parametrize("dtype", ["<i1", "<i4", "<i8", "<f4", "<f8", "|b1"])
    def test_every_dtype_crosses_intact(self, dtype):
        owner = ShmAllocator(hint="t").empty((3, 5), dtype)
        try:
            owner.array[...] = np.arange(15).reshape(3, 5).astype(dtype)
            descriptor = owner.descriptor()
            assert descriptor.dtype == np.dtype(dtype).str
            attached = attach(ShmDescriptor.from_payload(descriptor.to_payload()))
            assert attached.array.dtype == np.dtype(dtype)
            assert attached.array.shape == (3, 5)
            assert np.array_equal(attached.array, owner.array)
            attached.release()
        finally:
            owner.release()

    def test_scalar_shape_is_one_dimensional(self):
        buffer = ShmAllocator(hint="t").zeros(5, np.int64)
        try:
            assert buffer.array.shape == (5,)
            assert buffer.descriptor().shape == (5,)
        finally:
            buffer.release()

    def test_empty_array_still_gets_an_attachable_segment(self):
        owner = ShmAllocator(hint="t").zeros((0, 3), np.int64)
        try:
            descriptor = owner.descriptor()
            assert descriptor.nbytes == 0
            attached = attach(descriptor)
            assert attached.array.shape == (0, 3)
            attached.release()
        finally:
            owner.release()

    def test_release_is_idempotent_on_both_sides(self):
        owner = ShmAllocator(hint="t").zeros((4,), np.int64)
        attached = attach(owner.descriptor())
        attached.release()
        attached.release()
        assert owner.segment_name in active_segments()
        owner.release()
        owner.release()
        assert owner.array is None and attached.array is None

    def test_segment_name_carries_hint_and_creator_pid(self):
        """The reclaim sweep parses ``-p<pid>-``; a dash inside the hint
        must not be able to forge or break that marker."""
        buffer = ShmAllocator(hint="csr-graph").zeros((1,), np.int64)
        try:
            name = buffer.segment_name
            assert name.startswith(f"repro_csr_graph-p{os.getpid():x}-")
            assert name.count("-") == 2
        finally:
            buffer.release()

    def test_atexit_backstop_unlinks_forgotten_segments(self):
        buffer = ShmAllocator(hint="t").zeros((4,), np.int64)
        name = buffer.segment_name
        release_all_owned()
        assert name not in owned_segment_names()
        assert name not in active_segments()
        buffer.release()  # the owner's late release finds nothing to do

    def test_leak_registry_tracks_ownership(self):
        buffer = ShmAllocator(hint="t").zeros((4,), np.int64)
        name = buffer.segment_name
        assert name in owned_segment_names()
        assert name in active_segments()
        buffer.release()
        assert name not in owned_segment_names()
        assert name not in active_segments()


class TestCrashReclaim:
    def test_sigkilled_owner_segments_are_reclaimed(self):
        """A worker SIGKILLed while owning segments cannot clean up; the
        supervisor's pid-marker sweep must."""
        # Spawn the resource tracker *before* forking: a child that lazily
        # spawns its own tracker leaves an orphan process holding inherited
        # pipe fds after the SIGKILL (which can wedge the test harness),
        # and that private tracker would race this test's reclaim sweep.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        context = multiprocessing.get_context("fork")
        # Plain pipe + sleep, NOT a multiprocessing.Event: SIGKILLing a
        # process that sleeps inside Event.wait leaves the condition's
        # shared semaphores unacknowledged and deadlocks the parent's
        # eventual set() — exactly the lock-free design constraint the
        # production data plane obeys (workers never hold driver locks).
        parent_end, child_end = context.Pipe(duplex=False)

        def child(conn):
            buffer = ShmAllocator(hint="orphan").zeros((16,), np.int64)
            conn.send(buffer.segment_name)
            conn.close()
            time.sleep(60.0)
            buffer.release()  # never reached: parent SIGKILLs us

        process = context.Process(target=child, args=(child_end,))
        process.start()
        child_end.close()
        try:
            assert parent_end.poll(10.0), "child never created its segment"
            created = parent_end.recv()
            marker = f"-p{process.pid:x}-"
            orphans = [n for n in active_segments() if marker in n]
            assert created in orphans
            os.kill(process.pid, signal.SIGKILL)
            process.join(10.0)
            # SIGKILL skips atexit: the segments are orphaned...
            assert [n for n in active_segments() if marker in n] == orphans
            # ...until the supervisor sweeps the namespace for the pid.
            reclaimed = reclaim_process_segments(process.pid)
            assert sorted(reclaimed) == sorted(orphans)
            assert [n for n in active_segments() if marker in n] == []
        finally:
            if process.is_alive():  # pragma: no cover - only on assert failure
                process.kill()
                process.join(5.0)
            parent_end.close()


    def test_sweep_spares_segments_of_other_processes(self):
        """Reclaiming a dead pid must never touch a live owner's segments."""
        context = multiprocessing.get_context("fork")
        process = context.Process(target=int)
        process.start()
        process.join(10.0)
        mine = ShmAllocator(hint="live").zeros((4,), np.int64)
        try:
            assert reclaim_process_segments(process.pid) == []
            assert mine.segment_name in active_segments()
        finally:
            mine.release()


class TestLabelTable:
    def test_intern_and_extend_replicate(self):
        driver = LabelTable(["a", "b"])
        worker = LabelTable(["a", "b"])
        assert driver.intern("c") == (2, True)
        assert driver.intern("a") == (0, False)
        worker.extend(["c"])
        assert worker.labels() == driver.labels()
        assert worker.id_of("c") == 2

    def test_extend_is_idempotent(self):
        """A replacement worker seeded with the current table receives the
        in-flight batch's label announcement again; ids must not shift."""
        table = LabelTable(["a", "b", "c"])
        table.extend(["b", "c", "d"])
        assert table.labels() == ["a", "b", "c", "d"]
        table.extend(["b", "c", "d"])
        assert table.labels() == ["a", "b", "c", "d"]

    def test_lookup_and_membership(self):
        table = LabelTable([(0, "x"), 7, "a"])
        assert len(table) == 3
        assert (0, "x") in table and "b" not in table
        assert table.id_of(7) == 1
        assert table.label(2) == "a"
        with pytest.raises(KeyError):
            table.id_of("b")


class TestUpdateRing:
    def _batch(self):
        return [
            EdgeUpdate.addition("a", "b"),
            EdgeUpdate.removal("b", "c"),
            EdgeUpdate.addition("c", "d"),
        ]

    def test_encode_decode_round_trip(self):
        driver = LabelTable(["a", "b", "c"])
        worker = LabelTable(["a", "b", "c"])
        rows, new_labels = encode_batch(driver, self._batch())
        assert new_labels == ["d"]
        worker.extend(new_labels)
        assert decode_rows(rows, worker) == self._batch()

    def test_batch_mints_each_label_once_in_first_encounter_order(self):
        table = LabelTable()
        batch = [
            EdgeUpdate.addition("x", "y"),
            EdgeUpdate.addition("y", "z"),
            EdgeUpdate.removal("x", "z"),
        ]
        rows, new_labels = encode_batch(table, batch)
        assert new_labels == ["x", "y", "z"]
        assert rows.tolist() == [[0, 0, 1], [0, 1, 2], [1, 0, 2]]
        assert encode_batch(table, batch)[1] == []

    def test_empty_batch_appends_nothing(self):
        ring = UpdateRing(capacity=16)
        try:
            rows, new_labels = encode_batch(LabelTable(), [])
            assert rows.shape == (0, 3) and new_labels == []
            assert ring.append(rows) == (0, 0, None)
            assert ring.generation == 0 and ring.capacity == 16
        finally:
            ring.release()

    def test_dispatch_through_ring(self):
        table = LabelTable(["a", "b", "c", "d"])
        ring = UpdateRing(capacity=16)
        try:
            reader = RingReader(ring.payload())
            rows, _ = encode_batch(table, self._batch())
            start, length, rotated = ring.append(rows)
            assert (start, length, rotated) == (0, 3, None)
            assert decode_rows(reader.read(start, length), table) == self._batch()
            reader.release()
        finally:
            ring.release()

    def test_rotation_doubles_and_reattaches(self):
        table = LabelTable(["a", "b"])
        ring = UpdateRing(capacity=16)
        try:
            reader = RingReader(ring.payload())
            rows = np.tile(
                encode_batch(table, [EdgeUpdate.addition("a", "b")])[0], (10, 1)
            )
            ring.append(rows)
            start, length, rotated = ring.append(rows)  # 20 > 16: rotate
            assert rotated is not None
            assert ring.generation == 1
            assert ring.capacity >= 32
            assert start == 0 and length == 10
            reader.reattach(rotated)
            assert np.array_equal(reader.read(start, length), rows)
            reader.release()
        finally:
            ring.release()

    def test_oversized_batch_rotates_to_fit(self):
        """One batch larger than twice the ring still lands in one slice."""
        ring = UpdateRing(capacity=16)
        try:
            reader = RingReader(ring.payload())
            rows = np.arange(40 * 3, dtype=np.int64).reshape(40, 3)
            start, length, rotated = ring.append(rows)
            assert rotated is not None and (start, length) == (0, 40)
            assert ring.capacity >= 80
            reader.reattach(rotated)
            assert np.array_equal(reader.read(start, length), rows)
            reader.release()
        finally:
            ring.release()

    def test_reader_follows_successive_rotations(self):
        ring = UpdateRing(capacity=16)
        try:
            reader = RingReader(ring.payload())
            for generation in range(1, 4):
                rows = np.full((ring.capacity, 3), generation, dtype=np.int64)
                ring.append(rows[:1])
                start, length, rotated = ring.append(rows)
                assert rotated is not None and ring.generation == generation
                reader.reattach(rotated)
                assert np.array_equal(reader.read(start, length), rows)
            reader.release()
        finally:
            ring.release()

    def test_release_unlinks_every_generation(self):
        ring = UpdateRing(capacity=16)
        names = [ring.payload()["name"]]
        for _ in range(3):
            ring.append(np.zeros((ring.capacity + 1, 3), dtype=np.int64))
            names.append(ring.payload()["name"])
        assert len(set(names)) == 4
        assert set(names) <= set(active_segments())
        ring.release()
        assert not set(names) & set(active_segments())

    def test_reattach_same_generation_is_noop(self):
        ring = UpdateRing(capacity=16)
        try:
            reader = RingReader(ring.payload())
            mapping = reader._buffer
            reader.reattach(ring.payload())
            assert reader._buffer is mapping
            reader.release()
        finally:
            ring.release()

    def test_default_capacity(self):
        ring = UpdateRing()
        try:
            assert ring.capacity == DEFAULT_RING_CAPACITY
        finally:
            ring.release()
