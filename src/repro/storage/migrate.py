"""``repro migrate``: convert an artefact of an earlier format, once.

Every open and resume path reads the current format only and refuses an
earlier one with :class:`~repro.exceptions.StoreVersionError` naming this
command, so opening never writes.  This module is the one place that knows
the earlier formats:

* store files of versions 1 and 2 interleave each record (distances, then
  sigmas, then dependencies) at ``HEADER_SIZE + row * record_size(C)``;
  version 1 holds one record per vertex slot (row = slot) and no row map;
* sidecars (checkpoints, shard manifests) of payload version 1 may embed
  records as a ``{source: SourceData}`` ``"snapshot"``, lack the
  order-exact adjacency or later keys, and carry the retired config key
  ``shared_memory``;
* shard roots of the stamped-store layout: a shard's sidecar names a
  version-1 ``store-<cursor>.bin`` beside it, read in the row order
  ``shard_meta["source_order"]``.

Records, row order, row map, capacities, generation, scores, adjacency
and batch cursor are all kept.  Each file is rewritten through a unique
synced sibling renamed over it; nothing is written before every file of
the artefact was read and checked, and an artefact already current is
left byte-identical.  No lock is taken: concurrent runs write their own
siblings and produce the same bytes.
"""

from __future__ import annotations

import os
import pickle
import struct
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import CHECKPOINT_MAGIC, FrameworkCheckpoint, save_checkpoint
from repro.exceptions import ConfigurationError, StoreCorruptedError, StoreVersionError
from repro.graph.graph import Graph
from repro.storage.codec import (
    DELTA_DTYPE,
    DISTANCE_DTYPE,
    SIGMA_DTYPE,
    column_offsets,
    record_size,
)
from repro.storage.columns import ColumnBlock
from repro.storage.header import (
    FLAG_DIRECTED,
    HEADER_SIZE,
    STORE_MAGIC,
    StoreLayout,
    encode_metadata,
    metadata_crc,
    pack_header,
    plane_offsets,
    read_layout,
    read_sidecar,
    replace_atomically,
)
from repro.storage.shard import (
    MANIFEST_FILENAME,
    MANIFEST_MAGIC,
    ShardLayout,
    ShardManifest,
    load_manifest,
)

#: ``magic, version, flags, capacity, meta_size, meta_crc, row_capacity``
#: (``row_capacity`` is version 2's; in version 1 it reads as padding).
_LEGACY_HEADER = struct.Struct("<4sHHQQIQ")


def migrate(path: Union[str, Path]) -> List[Path]:
    """Convert the store file, checkpoint sidecar or shard root (directory
    or ``manifest.bin``) at ``path`` in place; return the files rewritten
    or removed, none when it was already current."""
    path = Path(path)
    if ShardLayout.is_shard_root(path):
        return _migrate_root(path if path.is_dir() else path.parent)
    with open(path, "rb") as file:
        magic = file.read(len(STORE_MAGIC))
    if magic == STORE_MAGIC:
        return _migrate_store(path)
    if magic != CHECKPOINT_MAGIC:
        raise StoreCorruptedError(
            f"{path} is neither a store file, a checkpoint sidecar nor a shard root"
        )
    checkpoint = _convert_checkpoint(path)
    if checkpoint is None:
        return []
    save_checkpoint(path, checkpoint)
    return [path]


def _migrate_store(path: Path) -> List[Path]:
    try:
        with open(path, "rb") as file:
            read_layout(file, os.fstat(file.fileno()).st_size, record_size)
        return []
    except StoreVersionError:
        pass
    layout, planes = _legacy_store(path)
    rows, columns = layout.row_capacity, layout.capacity
    meta = encode_metadata(
        layout.vertices, layout.sources, layout.generation, layout.rows
    )
    flags = FLAG_DIRECTED if layout.directed else 0

    def fill(out) -> None:
        out.write(pack_header(columns, len(meta), metadata_crc(meta), flags, rows))
        for offset, plane in zip(plane_offsets(rows, columns), planes):
            out.seek(offset)
            out.write(np.ascontiguousarray(plane).data)
        out.seek(HEADER_SIZE + rows * record_size(columns))
        out.write(meta)
        os.fchmod(out.fileno(), os.stat(path).st_mode & 0o7777)

    replace_atomically(path, fill)
    return [path]


def _legacy_store(path: Path) -> Tuple[StoreLayout, Tuple[np.ndarray, ...]]:
    """A version-1 or version-2 store file's layout (sources in row order)
    and its distance, sigma and delta matrices, as read-only views strided
    over the interleaved records of the mapped file."""
    with open(path, "rb") as file:
        header = file.read(HEADER_SIZE).ljust(HEADER_SIZE, b"\0")
        magic, version, flags, capacity, meta_size, meta_crc, row_capacity = (
            _LEGACY_HEADER.unpack_from(header)
        )
        if magic != STORE_MAGIC or version not in (1, 2) or flags & ~FLAG_DIRECTED:
            raise StoreVersionError(
                f"{path} is no store file of version 1 or 2 (magic {magic!r}, "
                f"version {version}, flags {flags:#06x})"
            )
        if version == 1:
            row_capacity = capacity
        area = HEADER_SIZE + row_capacity * record_size(capacity)
        file.seek(area)
        raw = file.read(meta_size)
    if len(raw) != meta_size or metadata_crc(raw) != meta_crc:
        raise StoreCorruptedError(f"{path} is truncated or its metadata is corrupted")
    meta = pickle.loads(raw)
    vertices, sources = meta["vertices"], meta["sources"]
    if version == 1:
        slot = {vertex: position for position, vertex in enumerate(vertices)}
        rows = [slot[source] for source in sources]
    else:
        rows = meta["rows"]
    placed = sorted(zip(rows, sources))
    layout = StoreLayout(
        capacity=capacity,
        vertices=vertices,
        sources=[source for _, source in placed],
        rows=[row for row, _ in placed],
        row_capacity=row_capacity,
        generation=meta.get("generation", 0),
        directed=bool(flags & FLAG_DIRECTED),
    )
    mapped = np.memmap(path, dtype=np.uint8, mode="r", shape=(area,))
    planes = tuple(
        np.ndarray(
            (row_capacity, capacity),
            dtype,
            buffer=mapped,
            offset=HEADER_SIZE + offset,
            strides=(record_size(capacity), dtype.itemsize),
        )
        for offset, dtype in zip(
            column_offsets(capacity), (DISTANCE_DTYPE, SIGMA_DTYPE, DELTA_DTYPE)
        )
    )
    return layout, planes


def _earlier_payload(path: Path, magic: bytes) -> Optional[dict]:
    """A version-1 sidecar's payload; ``None`` when the sidecar is current."""
    try:
        read_sidecar(path, magic)
        return None
    except StoreVersionError:
        return read_sidecar(path, magic, version=1)


def _config(payload: dict) -> Optional[dict]:
    config = payload.get("config")
    if config is None:
        return None
    return {key: value for key, value in config.items() if key != "shared_memory"}


def _convert_checkpoint(path: Path) -> Optional[FrameworkCheckpoint]:
    """The current form of an earlier checkpoint sidecar (``None`` when it
    is current), read and checked without writing anything."""
    payload = _earlier_payload(path, CHECKPOINT_MAGIC)
    if payload is None:
        return None
    directed = payload.get("directed", False)
    columns = payload.get("columns")
    if columns is not None:
        columns = ColumnBlock.from_payload(columns)
    elif payload.get("snapshot") is not None:
        columns = ColumnBlock.from_records(
            payload["vertices"], payload["snapshot"].values()
        )
    store_path = payload["store_path"]
    generation = payload.get("store_generation")
    shard_meta = payload.get("shard_meta")
    if shard_meta is not None and "source_order" in shard_meta:
        # The store is read by its name beside the sidecar: the recorded
        # path is where it was written, and the root may have moved since.
        columns = _stamped_block(
            path.parent / Path(store_path).name,
            shard_meta.pop("source_order"),
            generation,
        )
        store_path = generation = None
    adjacency = payload.get("adjacency")
    if adjacency is None:  # the canonical graph resume rebuilt from the edges
        graph = Graph(directed=directed)
        for vertex in payload["vertices"]:
            graph.add_vertex(vertex)
        for u, v in payload["edges"]:
            graph.add_edge(u, v)
        adjacency = graph.copy().adjacency_payload()
    return FrameworkCheckpoint(
        vertex_scores=payload["vertex_scores"],
        edge_scores=payload["edge_scores"],
        restricted=payload["restricted"],
        adjacency=adjacency,
        store_path=store_path,
        columns=columns,
        store_generation=generation,
        directed=directed,
        config=_config(payload),
        batch_cursor=payload.get("batch_cursor"),
        shard_meta=shard_meta,
    )


def _stamped_block(store: Path, sources, generation: Optional[int]) -> ColumnBlock:
    """A shard's rows of its stamped store, in ``sources`` order."""
    layout, planes = _legacy_store(store)
    if layout.generation != generation:
        raise ConfigurationError(
            f"store file {store} is at generation {layout.generation} but its "
            f"sidecar was written at generation {generation}; the shard "
            "directory holds mixed state"
        )
    row_of = dict(zip(layout.sources, layout.rows))
    missing = [source for source in sources if source not in row_of]
    if missing:
        raise ConfigurationError(
            f"store file {store} lacks records for sources {sorted(map(repr, missing))}"
        )
    rows = [row_of[source] for source in sources]
    width = len(layout.vertices)
    return ColumnBlock(
        layout.vertices, list(sources), *(plane[rows, :width] for plane in planes)
    )


def _migrate_root(root: Path) -> List[Path]:
    payload = _earlier_payload(root / MANIFEST_FILENAME, MANIFEST_MAGIC)
    if payload is None:
        manifest = load_manifest(root)
    else:  # the payload's keys are the manifest's fields
        manifest = ShardManifest(**dict(payload, config=_config(payload)))
    layout = ShardLayout(root, manifest.num_shards, manifest.checkpoint_every)
    sidecars = [layout.checkpoint_path(i) for i in range(manifest.num_shards)]
    converted = [(sidecar, _convert_checkpoint(sidecar)) for sidecar in sidecars]
    changed = []
    for sidecar, checkpoint in converted:
        if checkpoint is not None:
            save_checkpoint(sidecar, checkpoint)
            changed.append(sidecar)
    if payload is not None:
        layout.write_manifest(manifest)
        changed.append(layout.manifest_path)
    for stamped in sorted(root.glob("shard-*/store-*.bin")):
        stamped.unlink()
        changed.append(stamped)
    return changed
