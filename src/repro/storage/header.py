"""On-disk file header and metadata block of the durable ``DO`` store.

A :class:`~repro.storage.disk.DiskBDStore` file is laid out as::

    [ fixed header | capacity x record | metadata block ]
      64 bytes       capacity * record_size(capacity)     meta_size bytes

The fixed header is a little-endian struct holding a magic number, a format
version, the record capacity and the size + CRC32 of the metadata block.
The metadata block (a pickled mapping guarded by the CRC) persists what the
record area cannot express positionally: the vertex index (slot order) and
the source set.  Records therefore remain at stable byte offsets
(``HEADER_SIZE + slot * record_size``) while the metadata — which changes
only when vertices or sources are registered — lives after them and can be
rewritten without shifting any record.

The same magic/version/CRC framing is reused for sidecar files (framework
checkpoints, shard manifests) through :func:`write_sidecar` /
:func:`read_sidecar`; every sidecar write is atomic (temp file, fsync,
rename, directory fsync).
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Tuple, Union

from repro.exceptions import StoreCorruptedError, StoreVersionError
from repro.types import Vertex

#: Magic number of a betweenness-data store file ("Repro BD Store").
STORE_MAGIC = b"RBDS"

#: Current on-disk format version.  Bump on any incompatible layout change;
#: :func:`unpack_header` rejects versions it does not understand.
STORE_VERSION = 1

#: ``magic, version, flags, capacity, meta_size, meta_crc`` — packed at the
#: start of the fixed header, zero-padded to :data:`HEADER_SIZE`.
_HEADER_STRUCT = struct.Struct("<4sHHQQI")

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
    sources: List[Vertex]
    #: Bumped on the first record mutation of each store session, so
    #: checkpoints can detect that a store changed after they were written.
    generation: int = 0
    #: Orientation of the graph the records describe (header flag bit).
    directed: bool = False


def pack_header(
    capacity: int, meta_size: int, meta_crc: int, flags: int = 0
) -> bytes:
    """Pack the fixed header (padded to :data:`HEADER_SIZE` bytes)."""
    packed = _HEADER_STRUCT.pack(
        STORE_MAGIC, STORE_VERSION, flags, capacity, meta_size, meta_crc
    )
    return packed.ljust(HEADER_SIZE, b"\x00")


def unpack_header(raw: bytes) -> Tuple[int, int, int, int]:
    """Decode the fixed header; return ``(capacity, meta_size, meta_crc, flags)``."""
    if len(raw) < HEADER_SIZE:
        raise StoreCorruptedError(
            f"file too short for a store header: {len(raw)} of {HEADER_SIZE} bytes"
        )
    magic, version, flags, capacity, meta_size, meta_crc = _HEADER_STRUCT.unpack(
        raw[: _HEADER_STRUCT.size]
    )
    if magic != STORE_MAGIC:
        raise StoreCorruptedError(
            f"bad magic {magic!r}: not a betweenness-data store file"
        )
    if version != STORE_VERSION:
        raise StoreVersionError(
            f"store format version {version} is not supported "
            f"(this build reads version {STORE_VERSION})"
        )
    if flags & ~KNOWN_FLAGS:
        raise StoreVersionError(
            f"store header carries unknown flag bits {flags:#06x} "
            f"(this build understands {KNOWN_FLAGS:#06x})"
        )
    return capacity, meta_size, meta_crc, flags


def encode_metadata(
    vertices: List[Vertex], sources: List[Vertex], generation: int = 0
) -> bytes:
    """Serialise the vertex index (in slot order), source set and generation."""
    return pickle.dumps(
        {
            "vertices": list(vertices),
            "sources": list(sources),
            "generation": generation,
        },
        protocol=4,
    )


def decode_metadata(
    raw: bytes, expected_crc: int
) -> Tuple[List[Vertex], List[Vertex], int]:
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
        generation = int(payload.get("generation", 0))
    except Exception as exc:
        raise StoreCorruptedError(f"undecodable metadata block: {exc!r}") from exc
    return vertices, sources, generation


def metadata_crc(raw: bytes) -> int:
    """CRC32 of a metadata block, as stored in the header."""
    return zlib.crc32(raw) & 0xFFFFFFFF


def read_layout(fileobj, file_size: int, record_size_of) -> StoreLayout:
    """Read and validate the full layout of an existing store file.

    Parameters
    ----------
    fileobj:
        Seekable binary file positioned anywhere.
    file_size:
        Total size of the file in bytes (validated against the header).
    record_size_of:
        Callable mapping a capacity to the per-record byte size (injected to
        keep this module independent of the codec).
    """
    fileobj.seek(0)
    capacity, meta_size, meta_crc, flags = unpack_header(fileobj.read(HEADER_SIZE))
    meta_offset = HEADER_SIZE + capacity * record_size_of(capacity)
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
    vertices, sources, generation = decode_metadata(raw, meta_crc)
    if len(vertices) > capacity:
        raise StoreCorruptedError(
            f"metadata lists {len(vertices)} vertices but capacity is {capacity}"
        )
    unknown = set(sources) - set(vertices)
    if unknown:
        raise StoreCorruptedError(
            f"metadata lists sources outside the vertex index: {sorted(map(repr, unknown))}"
        )
    return StoreLayout(
        capacity=capacity,
        vertices=vertices,
        sources=sources,
        generation=generation,
        directed=bool(flags & FLAG_DIRECTED),
    )


# --------------------------------------------------------------------------- #
# Sidecar files (framework checkpoints)
# --------------------------------------------------------------------------- #
def write_sidecar(path: Union[str, Path], magic: bytes, payload: Any) -> None:
    """Write ``payload`` to ``path`` with the store's magic/version/CRC framing.

    The write is atomic: the bytes go to a temporary file in the same
    directory, which is fsynced, renamed over ``path`` and made durable by
    an fsync of the directory.  A crash at any instant leaves either the
    previous sidecar or the new one, never a torn file.
    """
    raw = pickle.dumps(payload, protocol=4)
    header = struct.pack("<4sHHQI", magic, STORE_VERSION, 0, len(raw), metadata_crc(raw))
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(header)
            tmp.write(raw)
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


def read_sidecar(path: Union[str, Path], magic: bytes) -> Any:
    """Read a sidecar previously written by :func:`write_sidecar`."""
    raw = Path(path).read_bytes()
    header_size = struct.calcsize("<4sHHQI")
    if len(raw) < header_size:
        raise StoreCorruptedError(f"file {path} is too short to be a sidecar")
    file_magic, version, _flags, size, crc = struct.unpack(
        "<4sHHQI", raw[:header_size]
    )
    if file_magic != magic:
        raise StoreCorruptedError(
            f"bad magic {file_magic!r} in {path} (expected {magic!r})"
        )
    if version != STORE_VERSION:
        raise StoreVersionError(
            f"sidecar {path} has version {version}, expected {STORE_VERSION}"
        )
    body = raw[header_size : header_size + size]
    if len(body) != size or metadata_crc(body) != crc:
        raise StoreCorruptedError(f"sidecar {path} is truncated or corrupted")
    return pickle.loads(body)
