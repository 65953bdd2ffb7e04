"""Buffer allocation seam: heap arrays or named shared-memory segments.

Every columnar layer in the stack (:class:`~repro.storage.arrays.ArrayBDStore`
column matrices, :class:`~repro.graph.csr.CSRGraph` compiled arrays, the
executors' update rings) allocates its flat numpy buffers through this
module instead of calling ``np.empty`` directly.  Two allocators implement
the seam:

* :class:`HeapAllocator` — plain process-private ``np.empty``; the default
  and exactly what the code did before the seam existed.
* :class:`ShmAllocator` — ``multiprocessing.shared_memory`` segments with
  an explicit create/attach/close/unlink lifecycle.  A buffer created here
  is *owned* by the creating process (which must eventually
  :meth:`~Buffer.release` it, unlinking the segment); any other process
  *attaches* via the buffer's :class:`ShmDescriptor` and only ever closes
  its mapping — attachers never unlink.

Descriptors are tiny picklable records ``(segment name, dtype, shape,
generation)``.  The generation stamp lets a publisher that re-allocates a
segment (store growth) refuse stale attaches: the publisher keeps a
one-``int64`` *stamp segment* whose live value must equal the descriptor's
generation at attach time, exactly like the checkpoint stamps of the shard
manifests.

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
from typing import Dict, List, Optional, Sequence, Tuple

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

#: dtype of the one-value generation stamp segments.
STAMP_DTYPE = np.dtype(np.int64)


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

    ``generation`` is the publisher's segment generation at export time;
    :func:`attach` compares it against the live stamp (when the publisher
    registered one) and refuses stale handles.
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
    """One allocated array plus its lifecycle handle.

    ``array`` is the numpy view to compute on.  Heap buffers have a no-op
    lifecycle; shm buffers close their mapping on :meth:`close` and
    additionally unlink the segment on :meth:`release` when this process
    owns it.
    """

    __slots__ = ("array", "_segment", "_owner", "_released")

    def __init__(self, array: np.ndarray, segment=None, owner: bool = False):
        self.array = array
        self._segment = segment
        self._owner = owner
        self._released = False

    @property
    def shared(self) -> bool:
        """Whether the buffer lives in a named shared-memory segment."""
        return self._segment is not None

    @property
    def owner(self) -> bool:
        """Whether this process created (and must unlink) the segment."""
        return self._owner

    @property
    def segment_name(self) -> Optional[str]:
        """The segment name, or ``None`` for heap buffers."""
        return self._segment.name if self._segment is not None else None

    def descriptor(self, generation: int = 0) -> ShmDescriptor:
        """Export the buffer as a :class:`ShmDescriptor` (shm buffers only)."""
        if self._segment is None:
            raise StorageError("heap buffers have no shared-memory descriptor")
        return ShmDescriptor(
            name=self._segment.name,
            dtype=self.array.dtype.str,
            shape=tuple(self.array.shape),
            generation=generation,
        )

    def close(self) -> None:
        """Drop this process's mapping (keeps the segment alive for others)."""
        if self._released or self._segment is None:
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
        if self._segment is None:
            self._released = True
            self.array = None
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
# Allocators
# --------------------------------------------------------------------------- #
class HeapAllocator:
    """Process-private numpy buffers — the pre-seam behavior, the default."""

    kind = "heap"

    def empty(self, shape, dtype) -> Buffer:
        """Uninitialised buffer (caller fills every element)."""
        return Buffer(np.empty(shape, dtype=dtype))

    def full(self, shape, dtype, fill_value) -> Buffer:
        """Buffer pre-filled with ``fill_value``."""
        return Buffer(np.full(shape, fill_value, dtype=dtype))

    def zeros(self, shape, dtype) -> Buffer:
        """Zero-filled buffer."""
        return Buffer(np.zeros(shape, dtype=dtype))


class ShmAllocator:
    """Named shared-memory buffers this process owns.

    ``hint`` is folded into segment names for debuggability (segments of
    one store/ring family sort together in ``/dev/shm``).
    """

    kind = "shm"

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

    def full(self, shape, dtype, fill_value) -> Buffer:
        """Owned segment pre-filled with ``fill_value``."""
        buffer = self._create(shape, dtype)
        buffer.array.fill(fill_value)
        return buffer

    def zeros(self, shape, dtype) -> Buffer:
        """Zero-filled owned segment."""
        buffer = self._create(shape, dtype)
        buffer.array.fill(0)
        return buffer


def get_allocator(kind, hint: str = ""):
    """Resolve ``"heap"``/``"shm"`` (or an allocator instance) to an allocator."""
    if isinstance(kind, (HeapAllocator, ShmAllocator)):
        return kind
    if kind in (None, "heap"):
        return HeapAllocator()
    if kind == "shm":
        return ShmAllocator(hint=hint)
    raise ConfigurationError(f"unknown buffer allocator {kind!r}")


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


# --------------------------------------------------------------------------- #
# Generation stamps
# --------------------------------------------------------------------------- #
class GenerationStamp:
    """A one-``int64`` segment publishing a store's live segment generation.

    The owner creates it once, bumps it on every re-allocation, and puts
    its name in every exported descriptor bundle.  Attachers read it and
    refuse descriptors whose recorded generation no longer matches — the
    shared-memory analogue of PR 7's checkpoint stamp refusal.
    """

    def __init__(self, buffer: Buffer) -> None:
        self._buffer = buffer

    @classmethod
    def create(cls, hint: str = "") -> "GenerationStamp":
        """Allocate an owned stamp segment starting at generation 0."""
        buffer = ShmAllocator(hint=f"{hint}_gen" if hint else "gen").zeros(
            (1,), STAMP_DTYPE
        )
        return cls(buffer)

    @property
    def name(self) -> str:
        """The stamp's segment name (goes into descriptor bundles)."""
        return self._buffer.segment_name

    @property
    def value(self) -> int:
        """The live generation."""
        return int(self._buffer.array[0])

    def bump(self) -> int:
        """Advance the live generation; returns the new value."""
        self._buffer.array[0] += 1
        return self.value

    def release(self) -> None:
        """Owner teardown: close and unlink the stamp segment."""
        self._buffer.release()

    @staticmethod
    def check(name: str, expected_generation: int) -> None:
        """Refuse a stale descriptor bundle.

        Attaches the stamp segment named ``name``, compares its live value
        to ``expected_generation`` and raises
        :class:`~repro.exceptions.ConfigurationError` on mismatch (or when
        the stamp — hence the publisher — is gone).
        """
        descriptor = ShmDescriptor(name=name, dtype=STAMP_DTYPE.str, shape=(1,))
        try:
            stamp = attach(descriptor)
        except StorageError as exc:
            raise ConfigurationError(
                f"cannot verify segment generation: stamp {name!r} is gone"
            ) from exc
        try:
            live = int(stamp.array[0])
        finally:
            stamp.release()
        if live != expected_generation:
            raise ConfigurationError(
                f"stale shared-memory descriptors: publisher is at "
                f"generation {live}, descriptor bundle was exported at "
                f"generation {expected_generation}"
            )


def attach_bundle(
    descriptors: Sequence[ShmDescriptor],
    stamp_name: Optional[str] = None,
    writable: bool = False,
) -> List[Buffer]:
    """Attach several segments atomically-ish, with one generation check.

    All descriptors must carry the same generation; when ``stamp_name`` is
    given the live stamp is checked first.  On any failure every mapping
    opened so far is closed before the error propagates.
    """
    generations = {d.generation for d in descriptors}
    if len(generations) > 1:
        raise ConfigurationError(
            f"descriptor bundle mixes generations {sorted(generations)}"
        )
    if stamp_name is not None and descriptors:
        GenerationStamp.check(stamp_name, descriptors[0].generation)
    buffers: List[Buffer] = []
    try:
        for descriptor in descriptors:
            buffers.append(attach(descriptor, writable=writable))
    except Exception:
        for buffer in buffers:
            buffer.release()
        raise
    return buffers
