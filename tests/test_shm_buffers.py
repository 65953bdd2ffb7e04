"""The ``repro_`` shared-memory namespace's crash sweep.

Nothing in the package creates segments any more, but the benchmark
harness and the test suite still guard the namespace, and
:func:`~repro.storage.buffers.reclaim_process_segments` is how a
supervisor unlinks what a SIGKILLed process left there.  The segments
here are created with the standard library's ``SharedMemory`` under a
name carrying the creator's pid marker.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import signal
import time
from multiprocessing import shared_memory

from repro.storage.buffers import (
    SEGMENT_PREFIX,
    active_segments,
    reclaim_process_segments,
)


def _create_segment(
    hint: str, pid: int = None, prefix: str = SEGMENT_PREFIX
) -> shared_memory.SharedMemory:
    """A segment named like the namespace's: prefix, hint, creator's pid."""
    pid = os.getpid() if pid is None else pid
    name = f"{prefix}{hint}-p{pid:x}-{secrets.token_hex(4)}"
    return shared_memory.SharedMemory(name=name, create=True, size=128)


def _remove(segment: shared_memory.SharedMemory) -> None:
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # already reclaimed by the test
        pass


class TestActiveSegments:
    def test_lists_only_the_namespace_sorted(self):
        ours = [_create_segment("b"), _create_segment("a")]
        foreign = _create_segment("x", prefix="notrepro_")
        try:
            listed = active_segments()
            assert listed == sorted(listed)
            assert {s.name for s in ours} <= set(listed)
            assert foreign.name not in listed
            assert all(name.startswith(SEGMENT_PREFIX) for name in listed)
        finally:
            for segment in ours + [foreign]:
                _remove(segment)

    def test_honours_a_custom_prefix(self):
        foreign = _create_segment("x", prefix="notrepro_")
        try:
            assert foreign.name in active_segments(prefix="notrepro_")
            assert foreign.name not in active_segments()
        finally:
            _remove(foreign)

    def test_is_empty_without_a_dev_shm_view(self, monkeypatch):
        def no_dev_shm(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", no_dev_shm)
        assert active_segments() == []


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
        # eventual set().
        parent_end, child_end = context.Pipe(duplex=False)

        def child(conn):
            segment = _create_segment("orphan")
            conn.send(segment.name)
            conn.close()
            time.sleep(60.0)
            segment.unlink()  # never reached: parent SIGKILLs us

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

    def test_sweep_matches_the_whole_pid_marker(self):
        """Pid 0x1's marker ``-p1-`` is a substring of no other pid's."""
        segment = _create_segment("marker", pid=0x11)
        try:
            assert reclaim_process_segments(0x1) == []
            assert segment.name in active_segments()
            assert reclaim_process_segments(0x11) == [segment.name]
            assert segment.name not in active_segments()
        finally:
            _remove(segment)

    def test_sweep_leaves_other_namespaces_alone(self):
        """A segment outside ``repro_`` is never ours to unlink, whatever
        its name says about its creator."""
        foreign = _create_segment("x", pid=0x11, prefix="notrepro_")
        try:
            assert reclaim_process_segments(0x11) == []
            assert foreign.name in active_segments(prefix="notrepro_")
        finally:
            _remove(foreign)

    def test_sweep_of_a_pid_with_nothing_left_is_empty(self):
        before = active_segments()
        assert reclaim_process_segments(0x7FFFFFF0) == []
        assert active_segments() == before

    def test_sweep_spares_segments_of_other_processes(self):
        """Reclaiming a dead pid must never touch a live owner's segments."""
        context = multiprocessing.get_context("fork")
        process = context.Process(target=int)
        process.start()
        process.join(10.0)
        mine = _create_segment("live")
        try:
            assert reclaim_process_segments(process.pid) == []
            assert mine.name in active_segments()
        finally:
            mine.close()
            mine.unlink()
