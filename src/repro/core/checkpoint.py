"""Sidecar checkpoints of an :class:`IncrementalBetweenness` instance.

The per-source data ``BD[.]`` already lives in a (possibly durable) store;
what the store cannot express is the *global* state of the framework: the
current graph, the maintained vertex/edge betweenness scores and whether the
instance is restricted to a source partition.  A checkpoint is a small
sidecar file holding exactly that, framed with the same magic/version/CRC
scheme as the store header (:mod:`repro.storage.header`) and written
atomically (temp file, fsync, rename, directory fsync).

When the records are not in a durable store file, the sidecar embeds them
as a column payload (:class:`~repro.storage.columns.ColumnBlock`): the
vertex order, the source order and the raw ``(distance, sigma, delta)``
matrices, whichever backend wrote them.  :func:`load_checkpoint` reads
the current payload version only and refuses an earlier one with
:class:`~repro.exceptions.StoreVersionError` naming ``repro migrate
<path>``, which converts it once (:mod:`repro.storage.migrate`).

Two resume paths exist, both exposed on the framework:

* **fast** — ``IncrementalBetweenness.resume(checkpoint)``: scores come from
  the sidecar, records from the reopened store (or the embedded column
  payload when the store had no durable file); nothing is recomputed.
* **reconstructive** — ``IncrementalBetweenness.from_store(graph, store)``:
  no sidecar needed; the global scores are rebuilt by scanning the store's
  records (``score[v] = Σ_s δ_s[v]`` and the DAG-edge contributions), which
  yields exactly the scores a from-scratch bootstrap would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.storage.columns import ColumnBlock
from repro.storage.header import read_sidecar, write_sidecar
from repro.types import EdgeScores, VertexScores

#: Magic number of a framework checkpoint sidecar ("Repro Betweenness ChecKpoint").
CHECKPOINT_MAGIC = b"RBCK"

PathLike = Union[str, Path]


@dataclass
class FrameworkCheckpoint:
    """Picklable global state of one framework instance.

    Exactly one of ``store_path`` (the durable store to reopen) and
    ``columns`` (embedded ``BD[.]`` records, used when the instance ran on
    an in-memory or temporary store) is set.
    """

    vertex_scores: VertexScores
    edge_scores: EdgeScores
    restricted: bool
    #: Order-exact adjacency capture (:meth:`repro.graph.Graph
    #: .adjacency_payload`): resume rebuilds the graph from it, so
    #: post-resume repair sweeps accumulate floats in the exact order the
    #: checkpointing process would have.
    adjacency: Dict = field(repr=False)
    store_path: Optional[str] = None
    columns: Optional[ColumnBlock] = field(default=None, repr=False)
    #: Generation of the durable store at checkpoint time; resume refuses a
    #: store whose generation has moved on (the sidecar would be stale).
    store_generation: Optional[int] = None
    #: Whether the checkpointed graph is directed.
    directed: bool = False
    #: The session configuration (``BetweennessConfig.to_dict()``) that
    #: produced this checkpoint, when one was in play.  It is stored as a
    #: plain dict so the storage layer needs no knowledge of the API layer;
    #: ``repro.api.resume_session`` rebuilds the config from it, which is
    #: why resuming needs nothing but the checkpoint path.
    config: Optional[Dict] = None
    #: Number of update batches applied when the checkpoint was written.
    #: The shard coordinator compares this against its manifest's batch
    #: cursor: an older sidecar is replayed forward from the batch log, a
    #: newer one (state from a future run) is refused — never silently mixed.
    batch_cursor: Optional[int] = None
    #: Shard bookkeeping written by the shard coordinator's workers:
    #: ``{"shard_id", "num_shards"}``.  The embedded column block carries
    #: the live store's row order, so a replacement worker reloads its
    #: records in the exact order the dead worker held them.
    shard_meta: Optional[Dict] = None


def save_checkpoint(path: PathLike, checkpoint: FrameworkCheckpoint) -> Path:
    """Write ``checkpoint`` to ``path`` (overwriting any previous checkpoint)."""
    path = Path(path)
    write_sidecar(
        path,
        CHECKPOINT_MAGIC,
        {
            "vertex_scores": checkpoint.vertex_scores,
            "edge_scores": checkpoint.edge_scores,
            "restricted": checkpoint.restricted,
            "store_path": checkpoint.store_path,
            "columns": (
                None if checkpoint.columns is None else checkpoint.columns.to_payload()
            ),
            "store_generation": checkpoint.store_generation,
            "directed": checkpoint.directed,
            "config": checkpoint.config,
            "batch_cursor": checkpoint.batch_cursor,
            "adjacency": checkpoint.adjacency,
            "shard_meta": checkpoint.shard_meta,
        },
    )
    return path


def load_checkpoint(path: PathLike) -> FrameworkCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint` (CRC-validated)."""
    payload = read_sidecar(path, CHECKPOINT_MAGIC)
    columns = payload["columns"]
    return FrameworkCheckpoint(
        vertex_scores=payload["vertex_scores"],
        edge_scores=payload["edge_scores"],
        restricted=payload["restricted"],
        store_path=payload["store_path"],
        columns=None if columns is None else ColumnBlock.from_payload(columns),
        store_generation=payload["store_generation"],
        directed=payload["directed"],
        config=payload["config"],
        batch_cursor=payload["batch_cursor"],
        adjacency=payload["adjacency"],
        shard_meta=payload["shard_meta"],
    )
