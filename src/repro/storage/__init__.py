"""Storage backends for the per-source betweenness data ``BD[.]``.

Section 5.1 of the paper describes how the framework stays practical on
large graphs: the per-source data ``(d, sigma, delta)`` has fixed width once
the predecessor lists are dropped, so it can be laid out on disk in a
columnar binary format, read sequentially source by source, updated in
place, and skipped entirely (after peeking at just two distances) when an
update does not affect the source.

Three interchangeable backends implement the same :class:`BDStore`
interface:

* :class:`InMemoryBDStore` — the "MO" configuration (in memory, no
  predecessor lists);
* :class:`ArrayBDStore` — the columnar in-RAM store backing the array
  kernel (also a full :class:`BDStore`);
* :class:`DiskBDStore` — the "DO" configuration (on disk, no predecessor
  lists): the same columnar rows of Section 5.1, mapped from a file.

Stores are addressed declaratively by **URI** (``memory://``, ``arrays://``,
``disk:///path``, ``shard:///root``) through :func:`create_store` (see
:mod:`repro.storage.factory` and ``docs/api.md``).
"""

from repro.storage.base import BDStore
from repro.storage.memory import InMemoryBDStore
from repro.storage.arrays import ArrayBDStore
from repro.storage.disk import DiskBDStore
from repro.storage.factory import (
    StoreRequest,
    StoreURI,
    create_store,
    parse_store_uri,
)
from repro.storage.header import STORE_MAGIC, STORE_VERSION, StoreLayout
from repro.storage.index import VertexIndex
from repro.storage.partition import SourcePartition, partition_sources
from repro.storage.shard import ShardLayout, ShardManifest, pick_shard

__all__ = [
    "BDStore",
    "InMemoryBDStore",
    "ArrayBDStore",
    "DiskBDStore",
    "StoreURI",
    "StoreRequest",
    "create_store",
    "parse_store_uri",
    "VertexIndex",
    "SourcePartition",
    "partition_sources",
    "ShardLayout",
    "ShardManifest",
    "pick_shard",
    "StoreLayout",
    "STORE_MAGIC",
    "STORE_VERSION",
]
