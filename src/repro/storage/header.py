"""On-disk file header and metadata block of the durable ``DO`` store.

A :class:`~repro.storage.disk.DiskBDStore` file (format version 3) is laid
out as::

    [ fixed header | sigma plane | delta plane | distance plane | metadata block ]
      64 bytes       R*C int64     R*C float64   R*C int16        meta_size bytes

with ``R`` the row capacity (records allocated) and ``C`` the column
capacity (vertex slots per record).  Each plane is one C-contiguous
``(R, C)`` matrix, so the three planes are the store's column matrices
byte for byte and a pair ``(row, slot)`` has the flat id ``row * C +
slot`` in all three.  The 8-byte planes come first so that every plane
starts 8-byte aligned without padding: the record area is exactly
``R * record_size(C)`` bytes.  A source's record is three row segments,
one per plane, not one contiguous region.

The fixed header is a little-endian struct holding a magic number, the
format version, flag bits, the column capacity, the size + CRC32 of the
metadata block and the row capacity.  Row ``r`` holds the record of one
*owned source*; the metadata block (a pickled mapping guarded by the CRC)
persists what the record area cannot express positionally: the vertex
index (slot order), the source list in row order with each source's row,
and the generation.  The metadata — which changes only when vertices or
sources are registered — lives after the record area and can be rewritten
without shifting any record.

This module reads version 3 only.  A file of an earlier version is
refused with :class:`~repro.exceptions.StoreVersionError`, whose message
names ``repro migrate <path>``: :mod:`repro.storage.migrate` is the one
place that knows the earlier layouts and rewrites such a file.

The same magic/version/CRC framing is reused for sidecar files (framework
checkpoints, shard manifests) through :func:`write_sidecar` /
:func:`read_sidecar`, which carry their own :data:`SIDECAR_VERSION` (an
earlier one is refused the same way); every sidecar write is atomic
(:func:`replace_atomically`: temp file, fsync, rename, directory fsync)
and both directions stream, so the pickled payload is never held in
memory as one string.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.exceptions import StoreCorruptedError, StoreVersionError
from repro.types import Vertex

#: Magic number of a betweenness-data store file ("Repro BD Store").
STORE_MAGIC = b"RBDS"

#: Current on-disk format version.  Bump on any incompatible layout change;
#: :func:`unpack_header` rejects versions it does not understand.
STORE_VERSION = 3

#: Version of the sidecar payloads (checkpoints and shard manifests);
#: independent of the store layout.  Version 2: a checkpoint embeds its
#: records as a column block and always carries the order-exact adjacency,
#: and no embedded config carries a ``shared_memory`` key.
SIDECAR_VERSION = 2

#: ``magic, version, flags, capacity, meta_size, meta_crc, row_capacity`` —
#: packed at the start of the fixed header, zero-padded to
#: :data:`HEADER_SIZE`.
_HEADER_STRUCT = struct.Struct("<4sHHQQIQ")

#: ``magic, version, flags, payload size, payload CRC`` of a sidecar.
_SIDECAR_STRUCT = struct.Struct("<4sHHQI")

#: Size in bytes of the fixed header; records start at this offset.
HEADER_SIZE = 64

#: Header flag bit: the store's records describe a *directed* graph.  A
#: record file carries no orientation of its own (BD records are per-source
#: either way), so this bit is what stops a directed store from being
#: resumed as undirected (or vice versa) and silently misread.
FLAG_DIRECTED = 0x1

#: All header flag bits this build understands; anything else is rejected.
KNOWN_FLAGS = FLAG_DIRECTED


@dataclass
class StoreLayout:
    """Decoded header + metadata of an existing store file."""

    capacity: int
    vertices: List[Vertex]
    #: Owned sources in row order, and the row of each.
    sources: List[Vertex]
    rows: List[int]
    row_capacity: int
    #: Bumped on the first record mutation of each store session, so
    #: checkpoints can detect that a store changed after they were written.
    generation: int = 0
    #: Orientation of the graph the records describe (header flag bit).
    directed: bool = False


def pack_header(
    capacity: int,
    meta_size: int,
    meta_crc: int,
    flags: int = 0,
    row_capacity: Optional[int] = None,
) -> bytes:
    """Pack the fixed header (padded to :data:`HEADER_SIZE` bytes).

    ``row_capacity`` defaults to ``capacity``: a square record area.
    """
    packed = _HEADER_STRUCT.pack(
        STORE_MAGIC,
        STORE_VERSION,
        flags,
        capacity,
        meta_size,
        meta_crc,
        capacity if row_capacity is None else row_capacity,
    )
    return packed.ljust(HEADER_SIZE, b"\x00")


def unpack_header(raw: bytes) -> Tuple[int, int, int, int]:
    """Decode the fixed header; return ``(capacity, meta_size, meta_crc, flags)``."""
    return _decode_header(raw)[:4]


def _decode_header(
    raw: bytes, name: str = "store file"
) -> Tuple[int, int, int, int, int]:
    """``(capacity, meta_size, meta_crc, flags, row_capacity)`` of a
    version-3 header; ``name`` (the file's path) goes into the errors."""
    if len(raw) < HEADER_SIZE:
        raise StoreCorruptedError(
            f"file too short for a store header: {len(raw)} of {HEADER_SIZE} bytes"
        )
    (
        magic, version, flags, capacity, meta_size, meta_crc, row_capacity
    ) = _HEADER_STRUCT.unpack(raw[: _HEADER_STRUCT.size])
    if magic != STORE_MAGIC:
        raise StoreCorruptedError(
            f"bad magic {magic!r}: not a betweenness-data store file"
        )
    if version != STORE_VERSION:
        raise StoreVersionError(
            _version_message(name, "store format", version, STORE_VERSION)
        )
    if flags & ~KNOWN_FLAGS:
        raise StoreVersionError(
            f"store header carries unknown flag bits {flags:#06x} "
            f"(this build understands {KNOWN_FLAGS:#06x})"
        )
    return capacity, meta_size, meta_crc, flags, row_capacity


def _version_message(name, what: str, version: int, current: int) -> str:
    """Why a file of another format ``version`` is refused."""
    advice = f": convert it with `repro migrate {name}`" if version < current else ""
    return f"{name} is {what} version {version}, this build reads {current}{advice}"


def encode_metadata(
    vertices: List[Vertex],
    sources: List[Vertex],
    generation: int,
    rows: List[int],
) -> bytes:
    """Serialise the vertex index (in slot order), the sources, their rows
    and the generation."""
    return pickle.dumps(
        {
            "vertices": list(vertices),
            "sources": list(sources),
            "generation": generation,
            "rows": list(rows),
        },
        protocol=4,
    )


def decode_metadata(
    raw: bytes, expected_crc: int
) -> Tuple[List[Vertex], List[Vertex], int, List[int]]:
    """Deserialise and CRC-check the metadata block."""
    actual_crc = zlib.crc32(raw) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise StoreCorruptedError(
            f"metadata checksum mismatch: header says {expected_crc:#010x}, "
            f"block hashes to {actual_crc:#010x}"
        )
    try:
        payload = pickle.loads(raw)
        vertices = list(payload["vertices"])
        sources = list(payload["sources"])
        generation = int(payload["generation"])
        rows = [int(row) for row in payload["rows"]]
    except Exception as exc:
        raise StoreCorruptedError(f"undecodable metadata block: {exc!r}") from exc
    return vertices, sources, generation, rows


def metadata_crc(raw: bytes) -> int:
    """CRC32 of a metadata block, as stored in the header."""
    return zlib.crc32(raw) & 0xFFFFFFFF


def read_layout(fileobj, file_size: int, record_size_of) -> StoreLayout:
    """Read and validate the full layout of an existing store file.

    The sources come back in row order.

    Parameters
    ----------
    fileobj:
        Seekable binary file positioned anywhere; its ``name`` (the path)
        goes into the errors.
    file_size:
        Total size of the file in bytes (validated against the header).
    record_size_of:
        Callable mapping a capacity to the per-record byte size (injected to
        keep this module independent of the codec).
    """
    fileobj.seek(0)
    capacity, meta_size, meta_crc, flags, row_capacity = _decode_header(
        fileobj.read(HEADER_SIZE), getattr(fileobj, "name", "store file")
    )
    meta_offset = HEADER_SIZE + row_capacity * record_size_of(capacity)
    if file_size < meta_offset + meta_size:
        raise StoreCorruptedError(
            f"truncated store file: {file_size} bytes, but the header "
            f"promises records up to byte {meta_offset} plus {meta_size} "
            "bytes of metadata"
        )
    fileobj.seek(meta_offset)
    raw = fileobj.read(meta_size)
    if len(raw) != meta_size:
        raise StoreCorruptedError(
            f"short metadata read: got {len(raw)} of {meta_size} bytes"
        )
    vertices, sources, generation, rows = decode_metadata(raw, meta_crc)
    if len(vertices) > capacity:
        raise StoreCorruptedError(
            f"metadata lists {len(vertices)} vertices but capacity is {capacity}"
        )
    unknown = set(sources) - set(vertices)
    if unknown:
        raise StoreCorruptedError(
            f"metadata lists sources outside the vertex index: {sorted(map(repr, unknown))}"
        )
    if (
        len(rows) != len(sources)
        or len(set(rows)) != len(rows)
        or len(set(sources)) != len(sources)
        or any(not 0 <= row < row_capacity for row in rows)
    ):
        raise StoreCorruptedError(
            f"metadata row map does not place {len(sources)} sources in "
            f"distinct rows below the row capacity {row_capacity}"
        )
    order = sorted(range(len(sources)), key=rows.__getitem__)
    return StoreLayout(
        capacity=capacity,
        vertices=vertices,
        sources=[sources[i] for i in order],
        rows=[rows[i] for i in order],
        row_capacity=row_capacity,
        generation=generation,
        directed=bool(flags & FLAG_DIRECTED),
    )


def plane_offsets(rows: int, columns: int) -> Tuple[int, int, int]:
    """File offsets of the distance, sigma and delta planes (version 3)."""
    plane = rows * columns
    sigma = HEADER_SIZE
    delta = sigma + plane * 8
    distance = delta + plane * 8
    return distance, sigma, delta


# --------------------------------------------------------------------------- #
# Sidecar files (framework checkpoints)
# --------------------------------------------------------------------------- #
class _ChecksummedWriter:
    """File writer that keeps the CRC32 and length of what went through it."""

    def __init__(self, file) -> None:
        self._file = file
        self.crc = 0
        self.size = 0

    def write(self, data) -> int:
        view = memoryview(data)
        self.crc = zlib.crc32(view, self.crc)
        self.size += view.nbytes
        return self._file.write(view)


def write_sidecar(path: Union[str, Path], magic: bytes, payload: Any) -> None:
    """Write ``payload`` to ``path`` with the store's magic/version/CRC framing.

    The payload is pickled straight into the temporary file of
    :func:`replace_atomically` (protocol 5, so ``pickle.PickleBuffer``
    parts are written from their own memory without a copy); the header,
    whose size and CRC are known only then, goes in at offset 0 last.
    """

    def fill(tmp) -> None:
        tmp.seek(_SIDECAR_STRUCT.size)
        writer = _ChecksummedWriter(tmp)
        pickle.dump(payload, writer, protocol=5)
        tmp.seek(0)
        tmp.write(
            _SIDECAR_STRUCT.pack(
                magic, SIDECAR_VERSION, 0, writer.size, writer.crc & 0xFFFFFFFF
            )
        )

    replace_atomically(path, fill)


def replace_atomically(path: Union[str, Path], fill: Callable[[Any], None]) -> None:
    """Replace ``path`` by a file that ``fill(binary_file)`` writes.

    ``fill`` writes a temporary file in the same directory, which is
    fsynced, renamed over ``path`` and made durable by an fsync of the
    directory.  A crash at any instant leaves either the previous file or
    the new one, never a torn file, and two processes replacing one path
    at once never share a temporary file.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            fill(tmp)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


#: Bytes per read of the streaming CRC pass over a sidecar.
_CRC_CHUNK = 1 << 20


def read_sidecar(
    path: Union[str, Path], magic: bytes, version: int = SIDECAR_VERSION
) -> Any:
    """Read a sidecar previously written by :func:`write_sidecar`.

    The payload is checked in a streaming CRC pass before anything is
    unpickled, then unpickled straight from the file, so a large byte
    string (a column matrix) is read once into its own object and the
    file is never held in memory whole.  A sidecar of another payload
    ``version`` than the one asked for (the current one, except for the
    converter of earlier payloads) is refused with
    :class:`~repro.exceptions.StoreVersionError`.
    """
    with open(path, "rb") as file:
        _check_sidecar(file, path, magic, version)
        return pickle.load(file)


def _check_sidecar(file, path, magic: bytes, expected_version: int) -> None:
    """Validate a sidecar's framing and payload CRC; leave ``file`` at the
    payload's first byte."""
    header_size = _SIDECAR_STRUCT.size
    raw = file.read(header_size)
    if len(raw) < header_size:
        raise StoreCorruptedError(f"file {path} is too short to be a sidecar")
    file_magic, version, _flags, size, crc = _SIDECAR_STRUCT.unpack(raw)
    if file_magic != magic:
        raise StoreCorruptedError(
            f"bad magic {file_magic!r} in {path} (expected {magic!r})"
        )
    if version != expected_version:
        raise StoreVersionError(
            _version_message(path, "sidecar payload", version, expected_version)
        )
    running, left = 0, size
    chunk = bytearray(min(size, _CRC_CHUNK))
    view = memoryview(chunk)
    while left:
        got = file.readinto(view[: min(left, len(chunk))])
        if not got:
            break
        running = zlib.crc32(view[:got], running)
        left -= got
    if left or running & 0xFFFFFFFF != crc:
        raise StoreCorruptedError(f"sidecar {path} is truncated or corrupted")
    file.seek(header_size)
