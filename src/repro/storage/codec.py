"""Binary columnar encoding of per-source betweenness data.

Following Section 5.1 of the paper, each source's record is stored as three
consecutive fixed-width columns — distances, shortest-path counts and
dependencies — so a record can be read sequentially, loaded straight into
arrays and written back in place.  Two departures from the paper's byte
budget are deliberate (see "The on-disk format" in
``docs/architecture.md``): distances use 2 bytes
(int16, ``-1`` meaning unreachable) and shortest-path counts use 8 bytes
(int64) to avoid overflow on dense graphs.

Both widths are *checked*, not assumed: a distance outside the int16 range
or a path count outside int64 raises :class:`StoreCorruptedError` instead of
silently wrapping into a wrong-but-plausible record.

:func:`encode_record_arrays` / :func:`decode_record_arrays` work on the
three column arrays directly, so the mmap-backed store decodes records
from zero-copy views and writes columns in place without building an
intermediate byte string.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.brandes import SourceData
from repro.exceptions import StoreCorruptedError
from repro.storage.index import VertexIndex
from repro.types import UNREACHABLE, Vertex

#: dtypes of the three columns (distance, sigma, delta).
DISTANCE_DTYPE = np.dtype("<i2")
SIGMA_DTYPE = np.dtype("<i8")
DELTA_DTYPE = np.dtype("<f8")

#: Inclusive value bounds enforced at encode time.
MAX_DISTANCE = int(np.iinfo(DISTANCE_DTYPE).max)
MAX_SIGMA = int(np.iinfo(SIGMA_DTYPE).max)

#: bytes per vertex in one record (2 + 8 + 8).
BYTES_PER_VERTEX = (
    DISTANCE_DTYPE.itemsize + SIGMA_DTYPE.itemsize + DELTA_DTYPE.itemsize
)


def record_size(capacity: int) -> int:
    """Size in bytes of one source record with ``capacity`` vertex slots."""
    return capacity * BYTES_PER_VERTEX


def column_offsets(capacity: int) -> Tuple[int, int, int]:
    """Byte offsets of the distance, sigma and delta columns within a record."""
    distance_offset = 0
    sigma_offset = capacity * DISTANCE_DTYPE.itemsize
    delta_offset = sigma_offset + capacity * SIGMA_DTYPE.itemsize
    return distance_offset, sigma_offset, delta_offset


def empty_record(capacity: int) -> bytes:
    """Record representing a source that reaches no vertex (all unreachable)."""
    distance = np.full(capacity, UNREACHABLE, dtype=DISTANCE_DTYPE)
    sigma = np.zeros(capacity, dtype=SIGMA_DTYPE)
    delta = np.zeros(capacity, dtype=DELTA_DTYPE)
    return distance.tobytes() + sigma.tobytes() + delta.tobytes()


def check_ranges(data: SourceData) -> None:
    """Reject values the fixed-width columns cannot represent.

    Without this check a distance ≥ 32768 (or a sigma ≥ 2**63) would wrap on
    the ``int16``/``int64`` cast and decode back as a *different, plausible*
    value — corruption with no error anywhere.  Negative values are equally
    invalid: ``-1`` is the unreachable sentinel and must never be stored
    explicitly.  Exposed so the store can validate a record *before*
    mutating any state (vertex registration, generation bump).
    """
    for vertex, value in data.distance.items():
        if not 0 <= value <= MAX_DISTANCE:
            raise StoreCorruptedError(
                f"distance {value} of vertex {vertex!r} (source "
                f"{data.source!r}) does not fit the int16 distance column "
                f"(valid range 0..{MAX_DISTANCE})"
            )
    for vertex, value in data.sigma.items():
        if not 0 <= value <= MAX_SIGMA:
            raise StoreCorruptedError(
                f"shortest-path count {value} of vertex {vertex!r} (source "
                f"{data.source!r}) does not fit the int64 sigma column "
                f"(valid range 0..{MAX_SIGMA})"
            )


def encode_record_arrays(
    data: SourceData, index: VertexIndex, capacity: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serialise ``data`` into the three column arrays (range-checked)."""
    if len(index) > capacity:
        raise StoreCorruptedError(
            f"vertex index holds {len(index)} vertices but capacity is {capacity}"
        )
    check_ranges(data)
    distance = np.full(capacity, UNREACHABLE, dtype=DISTANCE_DTYPE)
    sigma = np.zeros(capacity, dtype=SIGMA_DTYPE)
    delta = np.zeros(capacity, dtype=DELTA_DTYPE)
    for values, column in (
        (data.distance, distance),
        (data.sigma, sigma),
        (data.delta, delta),
    ):
        if values:
            slots = np.fromiter(
                (index.slot(v) for v in values), dtype=np.intp, count=len(values)
            )
            column[slots] = np.fromiter(
                values.values(), dtype=column.dtype, count=len(values)
            )
    return distance, sigma, delta


def decode_record_arrays(
    distance: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    source: Vertex,
    index: VertexIndex,
) -> SourceData:
    """Deserialise the three column arrays back into a :class:`SourceData`.

    Vectorised: the reachable slots are found with one numpy mask instead of
    a per-slot Python loop, and the dictionaries are built with ``zip`` over
    the (small) reachable subset only.  Slots beyond the current index
    (pre-allocated room for future vertices) are ignored.
    """
    known = len(index)
    reachable = np.nonzero(distance[:known] != UNREACHABLE)[0]
    data = SourceData(source=source)
    if reachable.size == 0:
        return data
    vertices = [index.vertex(slot) for slot in reachable.tolist()]
    data.distance = dict(zip(vertices, distance[reachable].tolist()))
    data.sigma = dict(zip(vertices, sigma[reachable].tolist()))
    data.delta = dict(zip(vertices, delta[reachable].tolist()))
    return data
