"""The worker runtime: one driver, N partition workers (Section 5.4, measured).

:mod:`repro.parallel.mapreduce` runs every "mapper" sequentially in one
process and *simulates* a cluster through the capacity model of Section 5.3.
This module replaces the simulation with measurement: the source set is
partitioned across genuine OS processes, each owning a restricted
:class:`~repro.core.framework.IncrementalBetweenness` instance (one mapper
of Figure 4), and both the initial Brandes phase and every incremental
repair run concurrently.  The reduce step sums the partial vertex/edge
scores in partition order, so the merged result is the serial framework's —
what changes is real wall-clock time.

:class:`ShardCoordinator` is the one driver.  It dispatches batches over
pipes, monitors worker health (poll with liveness checks and an optional
receive timeout instead of a blocking ``Pipe.recv``), lets stream-born
vertices be adopted by the least-loaded partition, and reduces the scores.
Whether the partitions are **durable shards** is the only thing a caller
chooses, by passing a :class:`~repro.storage.shard.ShardLayout` or not:

* **with a layout** each shard owns a directory under the ``shard://`` root
  holding its durable record store and checkpoint sidecar; the coordinator
  keeps an in-memory **replay log** of the batches applied since the last
  checkpoint round, and when a worker dies (or stays silent past
  ``recv_timeout``) it re-seeds a *replacement* from that shard's sidecar
  and replays only the logged batches the sidecar predates — the other
  shards never stop, and the world never restarts;
* **without one** nothing touches the disk (the ``process`` executor): no
  directory, no rounds, no log, and a failed worker is a terminal
  :class:`~repro.exceptions.WorkerFailedError` raised after the pool has
  been torn down.

Either way a worker declared failed is killed, never abandoned, and every
worker exits on its own when its driver dies (it waits on the driver's
process sentinel next to its command pipe), so neither processes nor
``/dev/shm`` segments outlive a SIGKILLed driver.

Recovery is **bit-identical** by construction: the sidecar carries the
worker's graph adjacency in exact iteration order
(:meth:`~repro.graph.Graph.adjacency_payload`) and the store's source
insertion order (``shard_meta["source_order"]``), and the replayed batches
reuse the exact adoption decisions of the original dispatch, so the
replacement accumulates every float in the same order the dead worker would
have.  The chaos suite (``tests/test_shard_chaos.py``) asserts ``==``
equality of final scores after seeded mid-stream kills.

Workers compute in RAM and touch disk only at checkpoint rounds: the round
writes a fresh cursor-stamped store file, then atomically replaces the
sidecar (the commit point), then prunes stores of older rounds — a crash at
any instant leaves the previous round fully intact.

With ``shared_memory=True`` the data plane changes shape (segments from
:mod:`repro.storage.buffers`, the update ring of
:mod:`repro.parallel.dataplane`) but not one bit of a score: the workers
decode the exact same update objects and replay them through the exact same
framework.  Everything else crossing the pipe is plain picklable data, so
both the ``fork`` and ``spawn`` start methods work.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.algorithms.brandes import SourceData
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.framework import IncrementalBetweenness
from repro.core.result import BatchResult
from repro.core.updates import EdgeUpdate, UpdateKind, batches, validate_batch
from repro.exceptions import (
    ConfigurationError,
    StoreCorruptedError,
    UpdateError,
    WorkerFailedError,
)
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.parallel.dataplane import (
    LabelTable,
    RingReader,
    UpdateRing,
    decode_rows,
    encode_batch,
)
from repro.parallel.mapreduce import merge_partial_scores
from repro.storage.arrays import ArrayBDStore
from repro.storage.buffers import (
    get_allocator,
    reclaim_process_segments,
    shm_available,
)
from repro.storage.disk import DiskBDStore
from repro.storage.index import VertexIndex
from repro.storage.memory import InMemoryBDStore
from repro.storage.partition import partition_sources
from repro.storage.shard import (
    ShardLayout,
    ShardManifest,
    load_manifest,
    pick_shard,
    prune_stale_stores,
)
from repro.types import EdgeScores, Vertex, VertexScores, validate_backend
from repro.utils.timing import Timer

PathLike = Union[str, Path]

#: Store kinds a freshly seeded worker can build for its partition.
WORKER_STORES = ("memory", "disk")

#: A coordinator event hook: ``notify(kind, **fields)`` with kinds
#: ``"worker_failed"``, ``"shard_recovered"`` and ``"checkpoint"``.  Plain
#: callables keep this layer free of any dependency on :mod:`repro.api`;
#: the session adapts them into typed events.
NotifyHook = Callable[..., None]


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _attach_worker_graph(shm: dict) -> Graph:
    """Rebuild the label graph from the driver's exported CSR segments.

    Nothing but segment descriptors crossed the pipe; the adjacency is
    decoded straight out of the shared compiled arrays (read-only attach)
    in CSR order — which is insertion order, so the rebuilt graph replays
    the driver graph's traversals exactly.
    """
    csr, buffers = CSRGraph.attach_compiled(shm["graph"])
    try:
        return csr.to_label_graph(shm["labels"])
    finally:
        for buffer in buffers:
            buffer.release()


def _build_worker_framework(payload: dict) -> IncrementalBetweenness:
    """Seed a fresh worker: its graph, store and restricted framework."""
    shm = payload["shm"]
    if shm is not None:
        graph = _attach_worker_graph(shm)
    else:
        graph = Graph(directed=payload["directed"])
        for vertex in payload["vertices"]:
            graph.add_vertex(vertex)
        for u, v in payload["edges"]:
            graph.add_edge(u, v)

    sources = payload["sources"]
    store_kind = payload["store"]
    backend = payload["backend"]
    seed = shm["seed"] if shm is not None else None
    if seed is not None and store_kind == "memory" and backend == "arrays":
        # The zero-copy fast path: the driver packed this partition's
        # records into shared column segments, and the columnar RAM store
        # the arrays kernel wants is exactly that layout — so the attached
        # matrices simply *are* the worker's live store.  Scores are
        # rebuilt by scanning the records in source order, the same
        # accumulation a snapshot-seeded bootstrap performs.
        store = ArrayBDStore.attach(seed, writable=True)
        return IncrementalBetweenness.from_store(
            graph, store, restricted=True, backend=backend
        )

    if store_kind == "memory":
        # The arrays backend defaults to its own columnar RAM store; the
        # dicts backend keeps the classic dict-of-records store.
        store = None if backend == "arrays" else InMemoryBDStore()
    else:  # "disk" — validated by the driver
        store = DiskBDStore(
            graph.vertex_list(), sources=sources, directed=graph.directed
        )

    snapshot = payload["snapshot"]
    if seed is not None:
        # Other store/backend combinations decode their records out of the
        # shared seed segments in-process — same decode the pickled path
        # performs, minus the pipe transfer and the driver-side pickling.
        seed_store = ArrayBDStore.attach(seed, writable=False)
        try:
            snapshot = {s: seed_store.get(s) for s in sources}
        finally:
            seed_store.close()
    store_path = payload["store_path"]
    if store_path is not None:
        # File-seeded bootstrap: every worker reopens the shared durable
        # store read-only-in-practice (records are only loaded, never
        # written) and pulls just its own partition's records, so nothing
        # crosses the driver→worker pipe but the path string.
        with DiskBDStore.open(store_path) as durable:
            missing = [s for s in sources if s not in durable]
            if missing:
                raise ConfigurationError(
                    f"store file {store_path} lacks records for sources "
                    f"{sorted(map(repr, missing))}"
                )
            snapshot = {s: durable.get(s) for s in sources}
    if snapshot is not None:
        return IncrementalBetweenness.from_source_data(
            graph, snapshot, store=store, restricted=True, backend=backend
        )
    return IncrementalBetweenness(
        graph, store=store, sources=sources, backend=backend
    )


def _write_shard_checkpoint(
    framework: IncrementalBetweenness,
    shard_dir: Path,
    shard_id: int,
    num_shards: int,
    cursor: int,
) -> None:
    """Persist one shard's state for batch ``cursor`` (crash-consistent).

    Write order is what makes a kill at any point recoverable: the stamped
    store file is written and renamed into place first, the sidecar rename
    commits the round, and only then are older store files pruned.
    """
    source_order = list(framework.store.sources())
    graph = framework.graph
    store_path = shard_dir / f"store-{cursor:08d}.bin"
    store_tmp = Path(str(store_path) + ".tmp")
    if store_tmp.exists():
        store_tmp.unlink()
    durable = DiskBDStore(
        graph.vertex_list(),
        path=str(store_tmp),
        sources=source_order,
        directed=graph.directed,
    )
    try:
        for source in source_order:
            durable.put(framework.store.get(source))
        durable.flush()
        generation = durable.generation
    finally:
        durable.close()
    os.replace(store_tmp, store_path)

    checkpoint = framework.build_checkpoint(
        batch_cursor=cursor,
        shard_meta={
            "shard_id": shard_id,
            "num_shards": num_shards,
            "source_order": source_order,
        },
        store_path=str(store_path.resolve()),
        store_generation=generation,
    )
    sidecar = shard_dir / "checkpoint.bin"
    sidecar_tmp = Path(str(sidecar) + ".tmp")
    save_checkpoint(sidecar_tmp, checkpoint)
    os.replace(sidecar_tmp, sidecar)  # the commit point
    prune_stale_stores(shard_dir, cursor)


def _resume_shard_framework(
    checkpoint_path: PathLike, backend: str
) -> IncrementalBetweenness:
    """Rebuild a shard's framework from its sidecar + stamped store.

    The records are loaded from the durable store into a fresh RAM store in
    the sidecar's recorded ``source_order``, and the graph comes from the
    order-exact adjacency payload — together they make the replacement's
    float accumulation order identical to the dead worker's.
    """
    ckpt = load_checkpoint(checkpoint_path)
    meta = ckpt.shard_meta
    if meta is None or ckpt.adjacency is None or ckpt.store_path is None:
        raise StoreCorruptedError(
            f"{checkpoint_path} is not a shard checkpoint sidecar"
        )
    graph = Graph.from_adjacency_payload(ckpt.adjacency, directed=ckpt.directed)
    source_order = meta["source_order"]
    with DiskBDStore.open(ckpt.store_path) as durable:
        if (
            ckpt.store_generation is not None
            and durable.generation != ckpt.store_generation
        ):
            raise ConfigurationError(
                f"shard store {ckpt.store_path} is at generation "
                f"{durable.generation} but its sidecar was written at "
                f"generation {ckpt.store_generation}; the shard directory "
                "holds mixed state"
            )
        missing = [s for s in source_order if s not in durable]
        if missing:
            raise StoreCorruptedError(
                f"shard store {ckpt.store_path} lacks records for sources "
                f"{sorted(map(repr, missing))}"
            )
        records = [durable.get(source) for source in source_order]
    if backend == "arrays":
        store = ArrayBDStore(
            graph.vertex_list(),
            row_capacity=max(1, len(source_order)),
            directed=graph.directed,
        )
    else:
        store = InMemoryBDStore()
    store.load_snapshot(records)
    return IncrementalBetweenness.resume(
        checkpoint_path, store=store, backend=backend, checkpoint=ckpt
    )


def _worker_main(connection, payload: dict) -> None:
    """Entry point of every worker process (one mapper of Figure 4).

    The payload either seeds a fresh partition (``checkpoint_path`` is
    ``None``: graph, sources, store kind and an optional snapshot, store
    file or shared seed segments) or names the shard sidecar to resume from.

    Protocol (all tuples over the pipe):

    * ``("apply", cursor, batch, adopt)`` → ``("applied", cursor, result,
      cpu_seconds)`` — replay a batch (batched pipeline) against this
      worker's partition; ``adopt`` lists the new vertices it takes
      ownership of
    * ``("apply_ring", cursor, start, length, new_labels, adopt_ids,
      rotated)`` → ``("applied", cursor, result, cpu_seconds)`` — the
      shared-memory variant: the batch is read back out of the
      coordinator's update ring instead of crossing the pipe
    * ``("checkpoint", cursor)`` → ``("checkpointed", cursor, seconds)``
      (durable shards only)
    * ``("collect",)`` → ``("scores", vertex_partial, edge_partial)``
    * ``("stop",)`` → ``("stopped",)``

    ``payload["chaos"]`` is test-only fault injection: ``{"cursor": k,
    "when": "before"|"after"}`` SIGKILLs the process at batch ``k`` either
    on receipt or after applying but before replying (state computed, then
    lost — the worst case recovery must cover).
    """
    chaos = payload["chaos"]
    shm = payload["shm"]
    driver = multiprocessing.parent_process().sentinel
    framework = None
    ring_reader = None
    label_table = None
    try:
        timer = Timer()
        with timer.measure():
            if payload["checkpoint_path"] is not None:
                framework = _resume_shard_framework(
                    payload["checkpoint_path"], payload["backend"]
                )
            else:
                framework = _build_worker_framework(payload)
            if shm is not None:
                ring_reader = RingReader(shm["ring"])
                label_table = LabelTable(shm["labels"])
        connection.send(("ready", timer.total))
        while True:
            # Sleep until a command arrives or the driver dies.  The pipe
            # alone cannot tell: under ``fork`` every sibling inherits the
            # driver-side end, so a dead driver never shows as EOF — its
            # process sentinel does, and an orphan would otherwise pin its
            # processes and /dev/shm segments forever.
            if connection not in wait([connection, driver]):
                return
            message = connection.recv()
            command = message[0]
            if command in ("apply", "apply_ring"):
                if command == "apply":
                    _, cursor, batch, adopt = message
                else:
                    _, cursor, start, length, new_labels, adopt_ids, rotated = (
                        message
                    )
                    if rotated is not None:
                        ring_reader.reattach(rotated)
                    if new_labels:
                        label_table.extend(new_labels)
                    batch = decode_rows(
                        ring_reader.read(start, length), label_table
                    )
                    adopt = [label_table.label(i) for i in adopt_ids or ()]
                if chaos and cursor == chaos["cursor"]:
                    if chaos.get("when", "after") == "before":
                        os.kill(os.getpid(), signal.SIGKILL)
                cpu_start = time.process_time()
                result = framework.apply_updates(batch, adopt=adopt or None)
                cpu_seconds = time.process_time() - cpu_start
                if chaos and cursor == chaos["cursor"]:
                    # die with the batch applied in RAM but unacknowledged:
                    # the work is lost and must be replayed onto the
                    # replacement from the shard checkpoint.
                    os.kill(os.getpid(), signal.SIGKILL)
                connection.send(("applied", cursor, result, cpu_seconds))
            elif command == "checkpoint":
                _, cursor = message
                round_timer = Timer()
                with round_timer.measure():
                    _write_shard_checkpoint(
                        framework,
                        Path(payload["shard_dir"]),
                        payload["shard_id"],
                        payload["num_shards"],
                        cursor,
                    )
                connection.send(("checkpointed", cursor, round_timer.total))
            elif command == "collect":
                connection.send(
                    (
                        "scores",
                        framework.vertex_betweenness(),
                        framework.edge_betweenness(),
                    )
                )
            elif command == "stop":
                connection.send(("stopped",))
                return
            else:
                connection.send(("error", f"unknown command {command!r}"))
    except EOFError:  # the driver closed this worker's pipe
        return
    except Exception as exc:  # surface worker failures to the coordinator
        try:
            connection.send(("error", repr(exc)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if ring_reader is not None:
            ring_reader.release()
        if framework is not None:
            framework.store.close()  # unlinks a disk store's temp file
        connection.close()


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
@dataclass
class ParallelBatchReport:
    """Outcome of one batch applied across all worker processes.

    ``worker_seconds`` are the per-worker (per-mapper) compute times as the
    workers measured them; ``elapsed_seconds`` is the driver-side wall-clock
    for the round trip, including IPC.  Cluster semantics mirror
    :class:`~repro.parallel.mapreduce.MapReduceUpdateReport`: wall-clock is
    the slowest mapper, cumulative cost is the sum.  ``payload_bytes`` is
    the exact pickled size of what the driver wrote to all worker pipes for
    the batch — what the shared-memory ring shrinks ~tenfold.
    """

    updates: List[EdgeUpdate] = field(default_factory=list)
    worker_seconds: List[float] = field(default_factory=list)
    worker_cpu_seconds: List[float] = field(default_factory=list)
    worker_results: List[BatchResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    payload_bytes: int = 0

    @property
    def num_updates(self) -> int:
        """Number of updates in the batch."""
        return len(self.updates)

    @property
    def wall_clock_seconds(self) -> float:
        """Slowest worker's compute time (cluster wall-clock, no IPC)."""
        if not self.worker_seconds:
            return 0.0
        return max(self.worker_seconds)

    @property
    def cumulative_seconds(self) -> float:
        """Total compute across workers (the Figure 6 comparison)."""
        return sum(self.worker_seconds)

    @property
    def max_cpu_seconds(self) -> float:
        """Slowest worker's *CPU* time for the batch.

        Unlike :attr:`wall_clock_seconds` this is insensitive to how many
        physical cores the host actually has: on an oversubscribed machine
        the workers timeshare and their wall-clocks stretch, but each
        worker's CPU time still reflects only its own partition's work —
        the quantity the paper's ``tS * n/p`` term models.
        """
        if not self.worker_cpu_seconds:
            return 0.0
        return max(self.worker_cpu_seconds)


@dataclass
class _WorkerHandle:
    shard_id: int
    process: "multiprocessing.Process"
    connection: object


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #
class ShardCoordinator:
    """Drive N partition workers; with a shard root, survive their deaths.

    Parameters
    ----------
    graph:
        Initial graph, replicated into every worker (the distributed-cache
        step of Figure 4).  ``None`` only on the :meth:`resume` path, where
        it is rebuilt from the shard sidecars.
    layout:
        The resolved :class:`~repro.storage.shard.ShardLayout` (root
        directory, shard count, checkpoint cadence), usually from
        ``ShardLayout.from_uri("shard:///root?shards=8&checkpoint_every=4")``
        — the partitions become durable shards.  ``None`` (default) runs
        the same workers with no disk state at all; pass ``num_workers``.
    backend:
        Compute backend of every worker (``"dicts"`` or ``"arrays"``).
        Scores are bit-identical either way; only speed changes.
    recv_timeout:
        Optional cap in seconds on waiting for a live worker's reply;
        process death is detected within ~50ms regardless.  ``None``
        (default) waits as long as the worker stays alive — a big batch is
        not a failure.  A worker that exceeds it is killed like a dead one.
    shared_memory:
        When true the coordinator runs the zero-copy data plane: workers
        attach the initial graph (and any seed records) from shared
        segments instead of unpickling them, and per-batch dispatch sends
        ``(offset, length)`` descriptors into a shared update ring instead
        of pickled update lists.  Scores are bit-identical either way.  The
        coordinator owns every segment and reclaims them on :meth:`close`,
        including segments of workers that died.  Replacement workers
        seeded from a sidecar keep using the ring for new batches (replay
        itself stays on the classic pickled path, since replayed slices may
        predate a ring rotation).
    notify:
        Optional :data:`NotifyHook` receiving ``worker_failed`` /
        ``shard_recovered`` / ``checkpoint`` notifications.
    config:
        Optional session-config dict persisted in the manifest so
        ``resume_session`` can restore the owning session from disk alone.
    chaos:
        Test-only fault injection, ``{shard_id: {"cursor": k, "when":
        "before"|"after"}}``; forwarded into the matching workers' payloads.
    num_workers:
        Number of worker processes when there is no ``layout`` (a layout
        carries its own shard count); the source set is split into this
        many balanced contiguous partitions.
    store:
        ``"memory"`` (default) or ``"disk"`` — the store kind a freshly
        seeded worker computes on, i.e. the MO or DO configuration inside
        each mapper.
    source_data:
        Optional precomputed ``{source: BD[s]}`` records (for example
        ``framework.store.snapshot()`` of an existing serial instance).
        When given, workers are seeded from their slice of the snapshot
        instead of re-running the Brandes bootstrap.
    source_store_path:
        Path to a durable :class:`~repro.storage.disk.DiskBDStore` file
        covering every source.  Each worker reopens the file itself and
        loads only its partition's records, so — unlike ``source_data`` —
        no pickled snapshot crosses the process boundary.  Mutually
        exclusive with ``source_data``.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> with ShardCoordinator(g, num_workers=2) as cluster:
    ...     report = cluster.add_edge(0, 2)
    ...     scores = cluster.vertex_betweenness()

    >>> layout = ShardLayout.from_uri("shard:///tmp/bc?shards=2")  # doctest: +SKIP
    >>> with ShardCoordinator(g, layout) as coordinator:           # doctest: +SKIP
    ...     coordinator.apply_batch([EdgeUpdate.addition(1, 3)])
    """

    _MAX_RECOVERIES_PER_COMMAND = 3
    #: How long a failed worker gets to honour SIGTERM before SIGKILL.
    _TERMINATE_GRACE_SECONDS = 0.5

    def __init__(
        self,
        graph: Optional[Graph],
        layout: Optional[ShardLayout] = None,
        backend: str = "dicts",
        recv_timeout: Optional[float] = None,
        shared_memory: bool = False,
        notify: Optional[NotifyHook] = None,
        config: Optional[Dict] = None,
        chaos: Optional[Dict[int, Dict]] = None,
        num_workers: Optional[int] = None,
        store: str = "memory",
        source_data: Optional[Dict[Vertex, SourceData]] = None,
        source_store_path: Optional[PathLike] = None,
        _manifest: Optional[ShardManifest] = None,
    ) -> None:
        validate_backend(backend)
        if layout is not None:
            num_workers = layout.num_shards
        if num_workers is None or num_workers < 1:
            raise ConfigurationError(
                "a worker pool needs a ShardLayout or num_workers >= 1, got "
                f"num_workers={num_workers}"
            )
        if store not in WORKER_STORES:
            raise ConfigurationError(
                f"store must be one of {WORKER_STORES}, got {store!r}"
            )
        if source_data is not None and source_store_path is not None:
            raise ConfigurationError(
                "source_data and source_store_path are mutually exclusive "
                "seeding mechanisms"
            )
        if shared_memory and not shm_available():
            raise ConfigurationError(
                "shared_memory=True requires multiprocessing.shared_memory, "
                "which this platform does not provide"
            )
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # this platform cannot fork
            self._context = multiprocessing.get_context("spawn")
        self._layout = layout
        self._num_shards = num_workers
        self._backend = backend
        self._recv_timeout = recv_timeout
        self._shared_memory = bool(shared_memory)
        self.notify = notify
        self._config = config
        self._chaos = dict(chaos or {})
        self._handles: List[Optional[_WorkerHandle]] = [None] * num_workers
        self._log: Dict[int, Tuple[List[EdgeUpdate], List[List[Vertex]]]] = {}
        self._partitions: Tuple = ()
        self._bytes_sent = 0
        self._closed = False
        # Zero-copy data plane (populated only when shared_memory is on).
        self._label_table: Optional[LabelTable] = None
        self._ring: Optional[UpdateRing] = None
        self._graph_seed_buffers: List = []
        self._seed_stores: List[ArrayBDStore] = []

        try:
            if _manifest is not None:
                self._init_from_manifest(_manifest)
            else:
                if graph is None:
                    raise ConfigurationError(
                        "ShardCoordinator needs an initial graph (or use "
                        "ShardCoordinator.resume to restore one from disk)"
                    )
                self._init_fresh(graph, store, source_data, source_store_path)
        except BaseException:
            self.close(checkpoint=False)
            raise

    def _init_fresh(
        self,
        graph: Graph,
        store: str,
        source_data: Optional[Dict[Vertex, SourceData]],
        source_store_path: Optional[PathLike],
    ) -> None:
        layout = self._layout
        if layout is not None:
            if layout.manifest_path.exists():
                raise ConfigurationError(
                    f"shard root {layout.root} is already initialised; resume "
                    "it with ShardCoordinator.resume / "
                    "repro.api.resume_session, or point the shard:// URI at a "
                    "fresh directory"
                )
            for shard_id in range(self.num_shards):
                layout.shard_dir(shard_id).mkdir(parents=True, exist_ok=True)
        self._graph = graph.copy()
        vertices = self._graph.vertex_list()
        self._partitions = tuple(partition_sources(vertices, self.num_shards))
        self._shard_sizes = [len(p.sources) for p in self._partitions]
        self._assignment: List[Tuple[Vertex, int]] = []
        self._cursor = 0
        self._last_round = -1
        edges = None
        graph_payload = None
        if self._shared_memory:
            self._build_data_plane(vertices)
            csr = CSRGraph.from_graph(self._graph, VertexIndex(vertices))
            self._graph_seed_buffers, graph_payload = csr.export_compiled(
                get_allocator("shm", hint="csrg")
            )
        else:
            edges = self._graph.edge_list()
        for partition in self._partitions:
            shard_id = partition.worker_id
            sources = list(partition.sources)
            snapshot = seed = None
            if source_data is not None:
                if self._shared_memory:
                    seed = self._pack_seed_columns(
                        shard_id, vertices, sources, source_data
                    )
                else:
                    snapshot = {s: source_data[s] for s in sources}
            payload = self._payload(
                shard_id,
                vertices=None if self._shared_memory else vertices,
                edges=edges,
                directed=self._graph.directed,
                sources=sources,
                store=store,
                snapshot=snapshot,
                store_path=(
                    None if source_store_path is None else str(source_store_path)
                ),
            )
            if self._shared_memory:
                payload["shm"].update(graph=graph_payload, seed=seed)
            self._spawn(shard_id, payload)
        self._init_seconds = [
            self._expect(i, "ready")[1] for i in range(self.num_shards)
        ]
        if layout is not None:
            # Round 0: make the bootstrap durable immediately, so a worker
            # that dies before the first periodic round still has a seed to
            # recover from (and `resume` works from the very first moment).
            self._checkpoint_round()

    def _pack_seed_columns(
        self,
        shard_id: int,
        vertices: List[Vertex],
        sources: List[Vertex],
        source_data: Dict[Vertex, SourceData],
    ) -> dict:
        """Pack one partition's seed records into owned shared segments.

        The packing reuses :class:`~repro.storage.arrays.ArrayBDStore`
        wholesale: an shm-allocated store filled in partition source order
        is, by construction, the exact bundle
        :meth:`~repro.storage.arrays.ArrayBDStore.attach` rebuilds on the
        worker side.  The coordinator keeps the store (it owns the
        segments) until :meth:`close` reclaims them; the descriptors are
        what crosses the pipe.
        """
        seed_store = ArrayBDStore(
            vertices,
            capacity=len(vertices),
            sources=(),
            row_capacity=max(1, len(sources)),
            directed=self._graph.directed,
            allocator=get_allocator("shm", hint=f"seed{shard_id}"),
        )
        self._seed_stores.append(seed_store)
        for source in sources:
            seed_store.put(source_data[source])
        return seed_store.export_column_descriptors()

    def _init_from_manifest(self, manifest: ShardManifest) -> None:
        layout = self._layout
        self._shard_sizes = list(manifest.shard_sizes)
        self._assignment = [tuple(entry) for entry in manifest.assignment]
        self._cursor = manifest.batch_cursor
        self._last_round = manifest.batch_cursor
        graph: Optional[Graph] = None
        for shard_id in range(layout.num_shards):
            sidecar = layout.checkpoint_path(shard_id)
            if not sidecar.exists():
                raise ConfigurationError(
                    f"shard root {layout.root} has no checkpoint for shard "
                    f"{shard_id} ({sidecar})"
                )
            ckpt = load_checkpoint(sidecar)
            meta = ckpt.shard_meta or {}
            if meta.get("shard_id") != shard_id:
                raise StoreCorruptedError(
                    f"{sidecar} belongs to shard {meta.get('shard_id')!r}, "
                    f"not {shard_id}"
                )
            if ckpt.batch_cursor != manifest.batch_cursor:
                # Never silently mix shard states from different rounds: a
                # restarted coordinator has no replay log, so a lagging (or
                # leading) sidecar cannot be replayed forward here.
                raise ConfigurationError(
                    f"shard {shard_id} checkpoint is at batch "
                    f"{ckpt.batch_cursor} but the coordinator manifest is at "
                    f"batch {manifest.batch_cursor}: the ensemble's shards "
                    "disagree and a restart cannot replay the gap — refusing "
                    "to mix stale and fresh shard state"
                )
            if graph is None:
                if ckpt.adjacency is None:
                    raise StoreCorruptedError(
                        f"{sidecar} lacks the adjacency payload"
                    )
                graph = Graph.from_adjacency_payload(
                    ckpt.adjacency, directed=ckpt.directed
                )
                if self._shared_memory:
                    # The resume path re-seeds state from the sidecars, so
                    # only the dispatch half of the plane (ring + labels) is
                    # shared; labels start from the restored graph's vertex
                    # order, which every sidecar recorded identically.
                    self._build_data_plane(graph.vertex_list())
            self._spawn(
                shard_id, self._payload(shard_id, checkpoint_path=str(sidecar))
            )
        self._graph = graph
        self._init_seconds = [
            self._expect(i, "ready")[1] for i in range(layout.num_shards)
        ]

    @classmethod
    def resume(
        cls,
        root: PathLike,
        backend: Optional[str] = None,
        recv_timeout: Optional[float] = None,
        shared_memory: bool = False,
        notify: Optional[NotifyHook] = None,
        config: Optional[Dict] = None,
    ) -> "ShardCoordinator":
        """Restore a coordinator from a shard root, using only the disk state.

        Shard count, cadence, orientation and backend come from the
        manifest; each worker re-seeds itself from its shard's sidecar.
        Every sidecar must sit at the manifest's batch cursor — anything
        else means the root mixes state from different rounds and is
        refused (see :meth:`_init_from_manifest`).
        """
        root = Path(root)
        if root.name == "manifest.bin":
            root = root.parent
        manifest = load_manifest(root)
        layout = ShardLayout(
            root=root,
            num_shards=manifest.num_shards,
            checkpoint_every=manifest.checkpoint_every,
        )
        return cls(
            graph=None,
            layout=layout,
            backend=backend if backend is not None else manifest.backend,
            recv_timeout=recv_timeout,
            shared_memory=shared_memory,
            notify=notify,
            config=config if config is not None else manifest.config,
            _manifest=manifest,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def layout(self) -> Optional[ShardLayout]:
        """The ensemble's disk layout (``None``: nothing is durable)."""
        return self._layout

    @property
    def num_shards(self) -> int:
        """Number of shards (= worker processes)."""
        return self._num_shards

    @property
    def partitions(self) -> Sequence:
        """The bootstrap source partitions, one per worker (none on resume)."""
        return self._partitions

    @property
    def graph(self) -> Graph:
        """The coordinator's view of the current graph (do not mutate)."""
        return self._graph

    @property
    def shared_memory(self) -> bool:
        """Whether the zero-copy data plane is active."""
        return self._shared_memory

    @property
    def batch_cursor(self) -> int:
        """Number of batches applied so far."""
        return self._cursor

    @property
    def last_checkpoint_cursor(self) -> int:
        """Batch cursor of the last completed checkpoint round."""
        return self._last_round

    @property
    def init_seconds(self) -> List[float]:
        """Per-worker bootstrap (parallel Brandes, seed load or resume) times."""
        return list(self._init_seconds)

    @property
    def init_wall_clock_seconds(self) -> float:
        """Bootstrap wall-clock: the slowest worker's initial phase."""
        return max(self._init_seconds)

    def shard_of(self, vertex: Vertex) -> Optional[int]:
        """Which shard adopted a stream-born ``vertex`` (None if not born)."""
        for candidate, shard_id in self._assignment:
            if candidate == vertex:
                return shard_id
        return None

    def vertex_betweenness(self) -> VertexScores:
        """Reduced (global) vertex betweenness scores."""
        vertex_partials, _ = self._collect()
        return merge_partial_scores(vertex_partials)

    def edge_betweenness(self) -> EdgeScores:
        """Reduced (global) edge betweenness scores."""
        _, edge_partials = self._collect()
        return merge_partial_scores(edge_partials)

    def betweenness(self) -> Tuple[VertexScores, EdgeScores]:
        """Both reduced score dictionaries from a single collect round."""
        vertex_partials, edge_partials = self._collect()
        return merge_partial_scores(vertex_partials), merge_partial_scores(
            edge_partials
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def add_edge(self, u: Vertex, v: Vertex) -> ParallelBatchReport:
        """Add an edge across all shards."""
        return self.apply_batch([EdgeUpdate.addition(u, v)])

    def remove_edge(self, u: Vertex, v: Vertex) -> ParallelBatchReport:
        """Remove an edge across all shards."""
        return self.apply_batch([EdgeUpdate.removal(u, v)])

    def apply(self, update: EdgeUpdate) -> ParallelBatchReport:
        """Apply a single update across all shards."""
        return self.apply_batch([update])

    def apply_batch(self, updates: Iterable[EdgeUpdate]) -> ParallelBatchReport:
        """Apply one batch on every shard, recovering any that die mid-way.

        The batch is validated against the coordinator's graph before
        anything is sent (workers validate again through the same
        :func:`~repro.core.updates.validate_batch`), then broadcast: each
        worker repairs its own source partition, replaying the batch in
        order.  Stream-born vertices are adopted by the least-loaded shard
        (ties to the lowest id) through
        :func:`~repro.storage.shard.pick_shard`; on a durable ensemble the
        decisions are appended to the replay log with the batch, so a
        recovering worker replays them verbatim, and persisted in the
        manifest at checkpoint rounds, so they survive coordinator restarts.
        """
        self._ensure_open()
        batch = list(updates)
        if not batch:
            return ParallelBatchReport()

        births = validate_batch(self._graph, batch)
        adopt_per_shard: List[List[Vertex]] = [[] for _ in range(self.num_shards)]
        for vertex in births:
            shard_id = pick_shard(self._shard_sizes)
            adopt_per_shard[shard_id].append(vertex)
            self._shard_sizes[shard_id] += 1
            self._assignment.append((vertex, shard_id))
        cursor = self._cursor
        bytes_before = self._bytes_sent

        timer = Timer()
        with timer.measure():
            if self._shared_memory:
                # Descriptor-passing dispatch: the rows go into the shared
                # ring once, and each shard receives only (start, length)
                # plus this batch's newly minted labels.  The replay log
                # keeps the classic pickled form — recovery must work even
                # after the ring rotated past the logged slice.
                rows, new_labels = encode_batch(self._label_table, batch)
                start, length, rotated = self._ring.append(rows)
                adopt_ids = [
                    [self._label_table.id_of(v) for v in adopt]
                    for adopt in adopt_per_shard
                ]
                replies = self._broadcast(
                    lambda i: (
                        "apply_ring",
                        cursor,
                        start,
                        length,
                        new_labels,
                        adopt_ids[i],
                        rotated,
                    ),
                    "applied",
                )
            else:
                replies = self._broadcast(
                    lambda i: ("apply", cursor, batch, adopt_per_shard[i]),
                    "applied",
                )
        payload_bytes = self._bytes_sent - bytes_before

        for update in batch:  # keep the coordinator's graph in sync
            u, v = update.endpoints
            if update.kind is UpdateKind.ADDITION:
                self._graph.add_edge(u, v)
            else:
                self._graph.remove_edge(u, v)
        self._cursor = cursor + 1
        if self._layout is not None:
            # A failure *during* the batch re-sends it; from here on a
            # replacement seeded from an older sidecar needs it replayed.
            self._log[cursor] = (batch, adopt_per_shard)
            if self._cursor - self._last_round >= self._layout.checkpoint_every:
                self._checkpoint_round()

        return ParallelBatchReport(
            updates=batch,
            worker_seconds=[reply[2].elapsed_seconds or 0.0 for reply in replies],
            worker_cpu_seconds=[reply[3] for reply in replies],
            worker_results=[reply[2] for reply in replies],
            elapsed_seconds=timer.total,
            payload_bytes=payload_bytes,
        )

    def process_stream(
        self, updates: Iterable[EdgeUpdate], batch_size: int = 1
    ) -> List[ParallelBatchReport]:
        """Apply a stream in consecutive batches of at most ``batch_size``."""
        return [self.apply_batch(chunk) for chunk in batches(updates, batch_size)]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> Path:
        """Run a checkpoint round now; returns the manifest path."""
        self._ensure_open()
        if self._layout is None:
            raise ConfigurationError(
                "this worker pool has no shard root to checkpoint into; "
                "build it with a ShardLayout for durable state"
            )
        return self._checkpoint_round()

    def _checkpoint_round(self) -> Path:
        cursor = self._cursor
        self._broadcast(lambda i: ("checkpoint", cursor), "checkpointed")
        manifest = ShardManifest(
            num_shards=self.num_shards,
            checkpoint_every=self._layout.checkpoint_every,
            backend=self._backend,
            directed=self._graph.directed,
            batch_cursor=cursor,
            assignment=[list(entry) for entry in self._assignment],
            shard_sizes=list(self._shard_sizes),
            config=self._config,
        )
        path = self._layout.write_manifest(manifest)
        self._last_round = cursor
        # Everything up to the round is durable on every shard; the log only
        # needs to cover batches a recovering worker could be behind by.
        self._log = {c: entry for c, entry in self._log.items() if c >= cursor}
        self._notify("checkpoint", path=str(path), batch_cursor=cursor)
        return path

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, checkpoint: bool = True) -> None:
        """Shut the workers down (idempotent).

        By default a durable ensemble first runs a final checkpoint round
        (best-effort), so ``resume`` continues from where the stream stopped
        rather than from the last periodic round.
        """
        if self._closed:
            return
        if (
            checkpoint
            and self._layout is not None
            and self._cursor > self._last_round
        ):
            try:
                self._checkpoint_round()
            except Exception:  # noqa: BLE001 - shutdown must proceed
                pass
        self._closed = True
        live = [handle for handle in self._handles if handle is not None]
        for handle in live:
            try:
                handle.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in live:
            try:
                # A worker may still be mid-batch (close() can run because
                # apply_batch raised); poll so a wedged worker cannot hang
                # shutdown — the teardown below bounds it instead.
                if handle.connection.poll(5.0):
                    handle.connection.recv()
            except (EOFError, OSError):
                pass
            self._teardown_handle(handle.shard_id, grace=5.0)
        self._release_data_plane()

    def _release_data_plane(self) -> None:
        """Unlink every plane segment the coordinator owns (idempotent);
        runs after the workers are down, however they went down."""
        for store in self._seed_stores:
            store.close()
        self._seed_stores = []
        for buffer in self._graph_seed_buffers:
            buffer.release()
        self._graph_seed_buffers = []
        if self._ring is not None:
            self._ring.release()
            self._ring = None
        self._label_table = None

    def _build_data_plane(self, vertices) -> None:
        self._label_table = LabelTable(vertices)
        self._ring = UpdateRing(hint="ring")

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals: dispatch and recovery
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the shard coordinator has been closed")

    def _notify(self, kind: str, **fields) -> None:
        if self.notify is not None:
            self.notify(kind, **fields)

    def _payload(self, shard_id: int, **fields) -> dict:
        """What every worker is born with; ``fields`` say how it is seeded."""
        payload = {
            "shard_id": shard_id,
            "num_shards": self.num_shards,
            "shard_dir": (
                None
                if self._layout is None
                else str(self._layout.shard_dir(shard_id))
            ),
            "backend": self._backend,
            "chaos": self._chaos.get(shard_id),
            "checkpoint_path": None,
            "shm": None,
        }
        if self._shared_memory:
            payload["shm"] = {
                "labels": self._label_table.labels(),
                "ring": self._ring.payload(),
                "graph": None,
                "seed": None,
            }
        payload.update(fields)
        return payload

    def _spawn(self, shard_id: int, payload: dict) -> None:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_end, payload), daemon=True
        )
        process.start()
        child_end.close()
        self._handles[shard_id] = _WorkerHandle(shard_id, process, parent_end)

    def _teardown_handle(self, shard_id: int, grace: float = 0.0) -> None:
        """The one teardown: the worker is gone when this returns.

        ``grace`` is how long a worker that was asked to stop may take to
        exit by itself; one declared failed gets none.  A process still
        alive afterwards is terminated and, should SIGTERM not take (a
        stopped process never handles it), killed: its state is lost
        already, and an abandoned worker pins its memory for good.
        """
        handle = self._handles[shard_id]
        if handle is None:
            return
        self._handles[shard_id] = None
        try:
            handle.connection.close()
        except OSError:  # pragma: no cover - defensive
            pass
        process = handle.process
        if grace:
            process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=self._TERMINATE_GRACE_SECONDS)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        if self._shared_memory and process.pid is not None:
            # A killed worker never ran its atexit hooks; any segments it
            # owned (shm sweep buffers inside a buffered disk store, say)
            # are reclaimed here so /dev/shm cannot leak.
            reclaim_process_segments(process.pid)

    def _send(self, shard_id: int, message) -> None:
        """Send one command, counting its exact pickled size.

        The message is pickled once here (with the same reducer
        ``Connection.send`` uses) and shipped via ``send_bytes``, so
        :attr:`ParallelBatchReport.payload_bytes` measures precisely what
        crosses the pipe.
        """
        handle = self._handles[shard_id]
        if handle is None:
            raise WorkerFailedError(f"shard {shard_id} has no live worker")
        data = bytes(ForkingPickler.dumps(message))
        try:
            handle.connection.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerFailedError(
                f"shard {shard_id} worker is unreachable: {exc}"
            ) from exc
        self._bytes_sent += len(data)

    def _recv(self, shard_id: int):
        """Receive one message from a worker without risking a driver hang.

        A blocking ``Pipe.recv`` would wait forever on a worker that was
        SIGKILLed mid-batch (the write end of the pipe stays open in the
        driver itself, so no EOF ever arrives).  Poll in short slices and
        check process liveness between them: death is detected within
        ~50ms and surfaces as :class:`~repro.exceptions.WorkerFailedError`
        instead of a hang.
        """
        handle = self._handles[shard_id]
        if handle is None:
            raise WorkerFailedError(f"shard {shard_id} has no live worker")
        deadline = (
            time.monotonic() + self._recv_timeout
            if self._recv_timeout is not None
            else None
        )
        while True:
            try:
                if handle.connection.poll(0.05):
                    return handle.connection.recv()
            except (EOFError, OSError) as exc:
                raise WorkerFailedError(
                    f"shard {shard_id} worker closed its pipe "
                    f"(exit code {handle.process.exitcode})"
                ) from exc
            if not handle.process.is_alive():
                # Drain a reply that raced the death before declaring it.
                try:
                    if handle.connection.poll(0):
                        return handle.connection.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerFailedError(
                    f"shard {shard_id} worker died "
                    f"(exit code {handle.process.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerFailedError(
                    f"shard {shard_id} worker did not reply within "
                    f"{self._recv_timeout}s"
                )

    def _expect(self, shard_id: int, expected: str):
        message = self._recv(shard_id)
        if message[0] == "error":
            # A worker-side exception is deterministic application state
            # (both sides validated the same batch), not a process failure:
            # recovery would just replay into the same error.
            self.close(checkpoint=False)
            raise UpdateError(f"shard {shard_id} worker failed: {message[1]}")
        if message[0] != expected:  # pragma: no cover - protocol invariant
            self.close(checkpoint=False)
            raise UpdateError(
                f"unexpected shard {shard_id} reply {message[0]!r} "
                f"(wanted {expected!r})"
            )
        return message

    def _broadcast(self, message_for: Callable[[int], tuple], expected: str):
        """Send a command to every shard and gather replies by shard id.

        Replies are indexed by shard, never by completion order, so the
        reduce step downstream sums partials in stable partition order no
        matter which worker answered first.
        """
        for shard_id in range(self.num_shards):
            try:
                self._send(shard_id, message_for(shard_id))
            except WorkerFailedError as exc:
                self._fail_without_root(shard_id, exc)
                self._recover_shard(shard_id, exc)
                self._send(shard_id, message_for(shard_id))
        return [
            self._await_reply(shard_id, message_for, expected)
            for shard_id in range(self.num_shards)
        ]

    def _await_reply(
        self, shard_id: int, message_for: Callable[[int], tuple], expected: str
    ):
        for attempt in range(self._MAX_RECOVERIES_PER_COMMAND + 1):
            try:
                return self._expect(shard_id, expected)
            except WorkerFailedError as exc:
                self._fail_without_root(shard_id, exc)
                if attempt == self._MAX_RECOVERIES_PER_COMMAND:
                    self.close(checkpoint=False)
                    raise WorkerFailedError(
                        f"shard {shard_id}: giving up after {attempt} "
                        f"recovery attempts ({exc})"
                    ) from exc
                try:
                    self._recover_shard(shard_id, exc)
                    self._send(shard_id, message_for(shard_id))
                except WorkerFailedError:
                    # The replacement died too; count another attempt.
                    self._teardown_handle(shard_id)
        raise AssertionError("unreachable")  # pragma: no cover

    def _fail_without_root(self, shard_id: int, failure: Exception) -> None:
        """Where durability decides what a dead or silent worker means.

        With a shard root the caller goes on to re-seed a replacement from
        the shard's sidecar; without one the partition had no durable copy,
        so the failure is terminal: kill the worker, tear the pool down,
        and let the failure propagate.
        """
        if self._layout is None:
            self._teardown_handle(shard_id)
            self.close()
            raise failure

    def _recover_shard(self, shard_id: int, failure: Exception) -> None:
        """Re-seed a replacement worker from the shard's checkpoint + replay."""
        self._notify(
            "worker_failed",
            shard=shard_id,
            error=str(failure),
            batch_cursor=self._cursor,
        )
        timer = Timer()
        with timer.measure():
            self._teardown_handle(shard_id)
            sidecar = self._layout.checkpoint_path(shard_id)
            if not sidecar.exists():
                raise WorkerFailedError(
                    f"shard {shard_id} has no checkpoint sidecar to recover "
                    f"from ({sidecar})"
                )
            ckpt = load_checkpoint(sidecar)
            start = ckpt.batch_cursor
            if start is None or start > self._cursor:
                raise ConfigurationError(
                    f"shard {shard_id} checkpoint is at batch {start} but "
                    f"the coordinator is at batch {self._cursor}: the shard "
                    "directory holds state from a different run — refusing "
                    "to mix"
                )
            missing = [c for c in range(start, self._cursor) if c not in self._log]
            if missing:
                raise ConfigurationError(
                    f"shard {shard_id} checkpoint at batch {start} predates "
                    f"the coordinator's retained replay log (missing batches "
                    f"{missing}); the shard cannot be replayed forward"
                )
            # The replacement is seeded with the *current* label table and
            # ring so it can serve ring dispatch from the next batch on; the
            # table already contains any in-flight batch's labels, so the
            # coming announcement is an idempotent no-op.
            self._spawn(
                shard_id,
                self._payload(shard_id, checkpoint_path=str(sidecar), chaos=None),
            )
            self._expect(shard_id, "ready")
            # Replay only what the sidecar predates, with the original
            # adoption decisions — the other shards are untouched.
            for cursor in range(start, self._cursor):
                batch, adopt_per_shard = self._log[cursor]
                self._send(
                    shard_id, ("apply", cursor, batch, adopt_per_shard[shard_id])
                )
                self._expect(shard_id, "applied")
        self._notify(
            "shard_recovered",
            shard=shard_id,
            replayed_batches=self._cursor - start,
            seconds=timer.total,
        )

    def _collect(self) -> Tuple[List[VertexScores], List[EdgeScores]]:
        self._ensure_open()
        replies = self._broadcast(lambda i: ("collect",), "scores")
        vertex_partials = [reply[1] for reply in replies]
        edge_partials = [reply[2] for reply in replies]
        return vertex_partials, edge_partials
