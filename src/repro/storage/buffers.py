"""The ``repro_`` shared-memory namespace: a leak guard and a crash sweep.

Nothing in this package creates shared-memory segments: the worker runtime
shares nothing with its workers but their pipes.  What stays is the guard
that keeps it so.  :func:`active_segments` scans ``/dev/shm`` for the
``repro_`` namespace, so the test suite and the benchmark harness can
assert that a run left no segment behind, and
:func:`reclaim_process_segments` unlinks whatever a dead process left in
it (a segment's name carries its creator's pid as a ``-p<pid:x>-``
marker).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import List

#: The namespace the guard watches: ``repro_<hint>-p<pid:x>-<hex>``.
SEGMENT_PREFIX = "repro_"


def active_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live ``/dev/shm`` segments in our namespace (sorted).

    Empty on platforms without a ``/dev/shm`` view of POSIX shared memory.
    """
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(prefix)
        )
    except OSError:  # no /dev/shm here, or racing a teardown
        return []


def reclaim_process_segments(pid: int) -> List[str]:
    """Unlink every segment the (dead) process ``pid`` created; return names.

    A process SIGKILLed while owning segments can never run its own
    teardown, so its supervisor sweeps the namespace for the pid marker
    after confirming the death.  Only call this for a process that is
    known dead — a live owner's segments would be torn out from under it.
    """
    marker = f"-p{pid:x}-"
    reclaimed: List[str] = []
    for name in active_segments():
        if marker not in name:
            continue
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        except (FileNotFoundError, OSError):  # pragma: no cover - race
            continue
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - race
            pass
        reclaimed.append(name)
    return reclaimed
