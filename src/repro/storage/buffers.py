"""Named shared-memory segments: the worker runtime's data plane.

The two arrays that cross the driver→worker boundary without a pipe — the
:class:`~repro.graph.csr.CSRGraph` compiled arrays a worker's graph is
rebuilt from, and the update ring of :mod:`repro.parallel.dataplane` —
live in ``multiprocessing.shared_memory`` segments allocated here, with an
explicit create/attach/close/unlink lifecycle.  A buffer created by
:class:`ShmAllocator` is *owned* by the creating process (which must
eventually :meth:`~Buffer.release` it, unlinking the segment); any other
process *attaches* via the buffer's :class:`ShmDescriptor` and only ever
closes its mapping — attachers never unlink.

Descriptors are tiny picklable records ``(segment name, dtype, shape,
generation)``; the generation numbers the segments of a publisher that
re-allocates (the ring's rotation), so a reader can tell a new segment
from the one it already maps.

Leak guard: every segment created through :class:`ShmAllocator` is entered
into a per-process registry and unlinked at interpreter exit if the owner
forgot.  :func:`active_segments` scans ``/dev/shm`` for the ``repro_``
namespace so the test suite can assert nothing survived teardown.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, StorageError

try:  # pragma: no cover - the stdlib module exists on every target platform
    from multiprocessing import resource_tracker, shared_memory

    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - exotic platforms only
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]
    _SHM_AVAILABLE = False

#: Every segment this package creates is named ``repro_<hex>`` so the leak
#: guard (and a human inspecting /dev/shm) can recognise ours.
SEGMENT_PREFIX = "repro_"


def shm_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is usable here."""
    return _SHM_AVAILABLE


# --------------------------------------------------------------------------- #
# Owner registry (leak guard)
# --------------------------------------------------------------------------- #
# name -> (owner pid, SharedMemory).  Guarded by a lock: executors allocate
# from the driver thread while atexit may fire elsewhere.
_OWNED: Dict[str, Tuple[int, "shared_memory.SharedMemory"]] = {}
_OWNED_LOCK = threading.Lock()


def _register_owned(segment: "shared_memory.SharedMemory") -> None:
    with _OWNED_LOCK:
        _OWNED[segment.name] = (os.getpid(), segment)


def _forget_owned(name: str) -> None:
    with _OWNED_LOCK:
        _OWNED.pop(name, None)


def owned_segment_names() -> List[str]:
    """Names of segments this process created and has not yet released."""
    pid = os.getpid()
    with _OWNED_LOCK:
        return [name for name, (owner, _) in _OWNED.items() if owner == pid]


def release_all_owned() -> None:
    """Close and unlink every segment this process still owns.

    Registered with :mod:`atexit` as a backstop; normal operation releases
    buffers explicitly and leaves nothing for this to do.  Entries created
    by a parent before a ``fork`` are skipped — they are the parent's to
    unlink.
    """
    pid = os.getpid()
    with _OWNED_LOCK:
        mine = [
            (name, segment)
            for name, (owner, segment) in _OWNED.items()
            if owner == pid
        ]
        for name, _ in mine:
            _OWNED.pop(name, None)
    for _, segment in mine:
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


atexit.register(release_all_owned)


def active_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live ``/dev/shm`` segments in our namespace (sorted).

    On platforms without a ``/dev/shm`` view of POSIX shared memory the
    scan falls back to this process's own registry, which is the best
    available approximation.
    """
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            return sorted(
                name for name in os.listdir(shm_dir) if name.startswith(prefix)
            )
        except OSError:  # pragma: no cover - racing teardown
            pass
    return sorted(owned_segment_names())  # pragma: no cover - non-/dev/shm OS


def _new_segment_name(hint: str = "") -> str:
    # The creator's pid is embedded between unambiguous "-p...-" markers so
    # a supervisor can reclaim everything a SIGKILLed child created (see
    # :func:`reclaim_process_segments`); hints never contain dashes.
    tag = f"{hint.replace('-', '_')}-" if hint else ""
    return f"{SEGMENT_PREFIX}{tag}p{os.getpid():x}-{secrets.token_hex(4)}"


def reclaim_process_segments(pid: int) -> List[str]:
    """Unlink every segment the (dead) process ``pid`` created; return names.

    The crash-reclaim path of the satellite leak guard: a worker that was
    SIGKILLed while *owning* segments can never run its own teardown, so
    its supervisor sweeps the namespace for the pid marker after
    confirming the death.  Only call this for a process that is known
    dead — a live owner's segments would be torn out from under it.
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
        _forget_owned(name)
        reclaimed.append(name)
    return reclaimed


# --------------------------------------------------------------------------- #
# Descriptors and buffers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmDescriptor:
    """Picklable handle to one shared-memory array segment.

    ``generation`` is the publisher's segment generation at export time
    (see :class:`~repro.parallel.dataplane.RingReader`).
    """

    name: str
    dtype: str
    shape: Tuple[int, ...]
    generation: int = 0

    @property
    def nbytes(self) -> int:
        """Exact payload size of the described array."""
        count = 1
        for extent in self.shape:
            count *= int(extent)
        return count * np.dtype(self.dtype).itemsize

    def to_payload(self) -> dict:
        """Plain-dict wire form (JSON-safe apart from tuple->list)."""
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "generation": self.generation,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShmDescriptor":
        """Rebuild a descriptor captured by :meth:`to_payload`."""
        return cls(
            name=str(payload["name"]),
            dtype=str(payload["dtype"]),
            shape=tuple(int(extent) for extent in payload["shape"]),
            generation=int(payload.get("generation", 0)),
        )


class Buffer:
    """One shared-memory array plus its lifecycle handle.

    ``array`` is the numpy view to compute on.  :meth:`close` drops this
    process's mapping; :meth:`release` additionally unlinks the segment
    when this process owns it.
    """

    __slots__ = ("array", "_segment", "_owner", "_released")

    def __init__(self, array: np.ndarray, segment, owner: bool = False):
        self.array = array
        self._segment = segment
        self._owner = owner
        self._released = False

    @property
    def owner(self) -> bool:
        """Whether this process created (and must unlink) the segment."""
        return self._owner

    @property
    def segment_name(self) -> str:
        """The segment's name (what a descriptor carries)."""
        return self._segment.name

    def descriptor(self, generation: int = 0) -> ShmDescriptor:
        """Export the buffer as a :class:`ShmDescriptor`."""
        return ShmDescriptor(
            name=self._segment.name,
            dtype=self.array.dtype.str,
            shape=tuple(self.array.shape),
            generation=generation,
        )

    def close(self) -> None:
        """Drop this process's mapping (keeps the segment alive for others)."""
        if self._released:
            return
        self._released = True
        self.array = None  # the mapping dies with the segment handle
        try:
            self._segment.close()
        except (BufferError, OSError):  # pragma: no cover - exported views
            pass
        if self._owner:
            _forget_owned(self._segment.name)

    def release(self) -> None:
        """Close and, when owner, unlink the segment (idempotent)."""
        if self._released:
            return
        self._released = True
        self.array = None
        name = self._segment.name
        try:
            self._segment.close()
        except (BufferError, OSError):  # pragma: no cover - exported views
            pass
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
            _forget_owned(name)


# --------------------------------------------------------------------------- #
# Allocator
# --------------------------------------------------------------------------- #
class ShmAllocator:
    """Named shared-memory buffers this process owns.

    ``hint`` is folded into segment names for debuggability (segments of
    one graph/ring family sort together in ``/dev/shm``).
    """

    def __init__(self, hint: str = "") -> None:
        if not shm_available():  # pragma: no cover - import-guarded
            raise ConfigurationError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        self._hint = hint

    def _create(self, shape, dtype) -> Buffer:
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.isscalar(shape) else tuple(shape)
        count = 1
        for extent in shape:
            count *= int(extent)
        nbytes = max(1, count * dtype.itemsize)
        segment = shared_memory.SharedMemory(
            name=_new_segment_name(self._hint), create=True, size=nbytes
        )
        _register_owned(segment)
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        return Buffer(array, segment=segment, owner=True)

    def empty(self, shape, dtype) -> Buffer:
        """Uninitialised owned segment (caller fills every element)."""
        return self._create(shape, dtype)

    def zeros(self, shape, dtype) -> Buffer:
        """Zero-filled owned segment."""
        buffer = self._create(shape, dtype)
        buffer.array.fill(0)
        return buffer


# --------------------------------------------------------------------------- #
# Attach side
# --------------------------------------------------------------------------- #
def attach(descriptor: ShmDescriptor, writable: bool = False) -> Buffer:
    """Map an existing segment described by ``descriptor``.

    The returned buffer is an *attachment*: :meth:`Buffer.release` only
    closes the local mapping, never unlinks.  Read-only by default —
    seeded graph structure must not be scribbled on by a worker.
    """
    if not shm_available():  # pragma: no cover - import-guarded
        raise ConfigurationError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    try:
        # Attaching registers the name with the resource tracker a second
        # time; the per-tracker cache is a *set* shared by the whole
        # process tree (fork and spawn both inherit the tracker fd), so
        # the duplicate collapses and the owner's eventual unlink is the
        # single clean unregister.  No manual unregister needed — doing
        # one would double-remove and spam KeyError from the tracker.
        segment = shared_memory.SharedMemory(name=descriptor.name, create=False)
    except FileNotFoundError as exc:
        raise StorageError(
            f"shared-memory segment {descriptor.name!r} does not exist "
            "(owner gone or descriptor stale)"
        ) from exc
    if segment.size < descriptor.nbytes:
        segment.close()
        raise StorageError(
            f"segment {descriptor.name!r} is {segment.size} bytes but the "
            f"descriptor announces {descriptor.nbytes}"
        )
    array = np.ndarray(
        descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=segment.buf
    )
    if not writable:
        array.flags.writeable = False
    return Buffer(array, segment=segment, owner=False)
