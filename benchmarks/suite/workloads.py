"""The four workloads: seeded inputs, the measured loops, the correctness gates.

Every workload follows one shape.  Set up three times from the graph in
hand (the third set-up carries the stream), warm up, then run a *fixed*
number of batches — so the work is identical on every run and commit —
timing each batch from submit until a top-10 read that reflects it returns.
Afterwards the final scores are compared with a from-scratch Brandes run on
the graph the harness itself derived from the stream.  The program under
test only ever sees the generated graph and updates.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.api import BetweennessConfig, BetweennessSession
from repro.core.kernel import brandes_betweenness_arrays
from repro.core.updates import EdgeUpdate
from repro.generators import synthetic_social_graph
from repro.graph import Graph
from repro.service import ServiceClient, ServiceServer, ServiceSettings
from repro.types import canonical_edge

from benchmarks.suite import metrics

#: Cold set-ups per run; ``setup_s`` is their median, the last one is used.
SETUPS = 3
#: Scores must match a from-scratch Brandes run to this relative tolerance
#: (incremental float accumulation drifts ~1e-9 absolute on scores ~1e5).
RELATIVE_TOLERANCE = 1e-9
#: One HTTP call or one wait on a child may take this long before the
#: workload fails instead of hanging.
WAIT_SECONDS = 30.0
SERVICE_CHECKPOINT_EVERY = 8
READER_THINK_SECONDS = 0.002
#: Timed batches a traced ``shard-2`` run replays on one serial session.
BASELINE_BATCHES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    batch_size: int
    #: Batches applied before timing starts (caches fill, lazy set-up ends).
    warmup: int
    #: Closed-loop batches timed, sized for about 20 s at the commit that
    #: added the benchmark (``run_seconds`` of ``BENCHMARK.json``).
    timed: int
    #: ``BetweennessConfig`` fields of an in-process session homed in the
    #: given directory; ``None`` runs the HTTP service instead.
    config: Optional[Callable[[Path], Dict[str, Any]]] = None
    #: ``session.checkpoint()`` after every this many timed batches.
    checkpoint_every: int = 0
    #: The service's open-loop phase: this many single updates after the
    #: closed loop, falling due at ``online_rate`` per second.
    online: int = 0
    online_rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "online-serial",
            vertices=1500, batch_size=1, warmup=16, timed=200,
            config=lambda home: {"store": "arrays://"},
        ),
        Workload(
            "batched-disk",
            vertices=2200, batch_size=2, warmup=2, timed=80,
            checkpoint_every=4,
            config=lambda home: {
                "store": f"disk://{home}/bd.bin?mmap=true",
                "checkpoint_path": f"{home}/bd.ck",
            },
        ),
        Workload(
            "shard-2",
            vertices=1500, batch_size=4, warmup=2, timed=52,
            config=lambda home: {
                "executor": "shard",
                "workers": 2,
                "store": f"shard://{home}/shards?shards=2&checkpoint_every=8&shm=1",
            },
        ),
        Workload(
            "service-mixed",
            vertices=600, batch_size=1, warmup=16, timed=220,
            online=100, online_rate=10.0,
        ),
    )
}


class GateFailure(Exception):
    """The program's outputs are wrong; no metrics are reported."""


@dataclass
class Measured:
    """Raw samples of one run (seconds), before any metric arithmetic."""

    setup_seconds: List[float]
    update_seconds: List[float] = field(default_factory=list)
    read_seconds: List[float] = field(default_factory=list)
    timed_seconds: float = 0.0
    timed_updates: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    vertex_scores: Dict[Any, float] = field(default_factory=dict)
    edge_scores: Dict[Any, float] = field(default_factory=dict)
    #: End-to-end metrics only this workload has: name -> (value, unit).
    extras: Dict[str, metrics.Metric] = field(default_factory=dict)
    #: Traced runs only: boundary readings for ``metrics.per_layer``.
    notes: Dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Inputs and the correctness gate
# --------------------------------------------------------------------- #
def mixed_stream(graph: Graph, count: int, seed: int) -> List[EdgeUpdate]:
    """The paper's "graph updates" stream: 60 % additions of random
    unconnected pairs, 40 % removals of random existing edges, each valid
    against the graph as evolved by the updates before it."""
    rng = random.Random(seed)
    vertices = graph.vertex_list()
    edges = [canonical_edge(u, v) for u, v in graph.edge_list()]
    present = set(edges)
    stream: List[EdgeUpdate] = []
    while len(stream) < count:
        if rng.random() < 0.4 and edges:
            slot = rng.randrange(len(edges))
            edges[slot], edges[-1] = edges[-1], edges[slot]
            edge = edges.pop()
            present.discard(edge)
            stream.append(EdgeUpdate.removal(*edge))
        else:
            edge = canonical_edge(*rng.sample(vertices, 2))
            if edge not in present:
                present.add(edge)
                edges.append(edge)
                stream.append(EdgeUpdate.addition(*edge))
    return stream


def evolved(graph: Graph, updates: List[EdgeUpdate]) -> Graph:
    """The graph after ``updates``, derived without the program under test."""
    final = graph.copy()
    for update in updates:
        if update.is_addition:
            final.add_edge(update.u, update.v)
        else:
            final.remove_edge(update.u, update.v)
    return final


def check_scores(
    vertex_scores: Dict[Any, float], edge_scores: Dict[Any, float], graph: Graph
) -> None:
    """The gate: both score maps against Brandes from scratch on ``graph``."""
    oracle = brandes_betweenness_arrays(graph)
    edge_scores = {canonical_edge(*e): s for e, s in edge_scores.items()}
    for what, got, want in (
        ("vertex", vertex_scores, oracle.vertex_scores),
        ("edge", edge_scores, oracle.edge_scores),
    ):
        if got.keys() != want.keys():
            raise GateFailure(
                f"{what} scores cover {len(got)} items, the oracle {len(want)}"
            )
        for key, expected in want.items():
            if abs(got[key] - expected) > RELATIVE_TOLERANCE * max(1.0, abs(expected)):
                raise GateFailure(
                    f"{what} score of {key!r} is {got[key]!r}, "
                    f"the oracle says {expected!r}"
                )


def _kinds(updates) -> Dict[int, str]:
    """Operation id -> "add" | "remove" of a one-update-per-batch stream."""
    return {index: update.kind.value for index, update in enumerate(updates)}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for
    (shard workers, the server); Linux reports kilobytes."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def stop_children(children: Dict[int, Any]) -> List[int]:
    """Kill whatever of ``children`` (see ``run_workload``) still runs and
    wait for it; returns the pids that had to be killed."""
    survivors = []
    for pid, child in children.items():
        if isinstance(child, subprocess.Popen):
            if child.poll() is None:
                survivors.append(pid)
            try:  # the server leads a process group of its own
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(WAIT_SECONDS)
        elif child.is_alive():
            survivors.append(pid)
            child.kill()
            child.join(WAIT_SECONDS)
    return survivors


def run_workload(
    workload: Workload,
    seed: int,
    workdir: Path,
    children: Dict[int, Any],
    recorder=None,
) -> Measured:
    """Generate the inputs, run ``workload``, and pass its scores through
    the gate.  ``children`` receives pid -> handle of every process the run
    starts (shard workers, the server child), so that the caller can hold
    them to account whatever happens here.  ``recorder`` is a
    ``tracing.Recorder`` with its wrappers installed, or ``None`` for an
    untraced run."""
    began = time.perf_counter()
    graph = synthetic_social_graph(workload.vertices, rng=seed)
    size = workload.batch_size
    count = workload.warmup + workload.timed + workload.online
    updates = mixed_stream(graph, count * size, seed + 1)
    batches = [updates[i:i + size] for i in range(0, len(updates), size)]
    generate_s = time.perf_counter() - began

    if workload.config is None:
        measured = asyncio.run(
            _run_service(workload, graph, updates, workdir, children, recorder)
        )
    else:
        measured = _run_sessions(workload, graph, batches, workdir, children, recorder)
    measured.peak_rss_mb = peak_rss_mb()

    began = time.perf_counter()
    check_scores(measured.vertex_scores, measured.edge_scores, evolved(graph, updates))
    measured.notes.update(
        generate_s=generate_s,
        oracle_s=time.perf_counter() - began,
        warmup_batches=workload.warmup,
        timed_batches=workload.timed + workload.online,
    )
    return measured


# --------------------------------------------------------------------- #
# In-process workloads (serial and shard executors)
# --------------------------------------------------------------------- #
class _SessionProbe:
    """What a traced run reads off a session at the timed section's
    boundaries: events, kernel phase timings, store counters."""

    def __init__(self, session: BetweennessSession, recorder) -> None:
        self.events: List[Tuple[str, Any]] = []
        session.subscribe(
            lambda event: self.events.append((type(event).__name__, recorder.op))
        )
        self.kernel = None
        self.store = None
        if session.config.executor == "serial":
            # The same hook benchmarks/bench_kernel.py reads.
            self.kernel = session.framework._kernel
            self.store = session.framework.store

    def _counters(self) -> Tuple[int, int]:
        return (
            getattr(self.store, "bytes_read", 0),
            getattr(self.store, "bytes_written", 0),
        )

    def start(self) -> None:
        self.events.clear()
        if self.kernel is not None:
            self.kernel.phase_timings = {}
        self.before = self._counters()

    def stop(self, home: Optional[Path]) -> Dict[str, Any]:
        read, written = self._counters()
        notes: Dict[str, Any] = {
            "events_emitted": len(self.events),
            "checkpoint_ops": [
                op for kind, op in self.events if kind == "CheckpointWritten"
            ],
            "bytes_read": read - self.before[0],
            "bytes_written": written - self.before[1],
        }
        if self.kernel is not None:
            notes["phases"] = dict(self.kernel.phase_timings)
            self.kernel.phase_timings = None
        if home is not None and any(home.iterdir()):
            notes["store_bytes"] = sum(
                p.stat().st_size for p in home.rglob("*") if p.is_file()
            )
        elif self.store is not None:
            notes["store_bytes"] = sum(
                column.nbytes for column in self.store.column_matrices()
            )
        return notes


def _run_sessions(
    workload: Workload,
    graph: Graph,
    batches: List[List[EdgeUpdate]],
    workdir: Path,
    children: Dict[int, Any],
    recorder,
) -> Measured:
    setup_seconds = []
    for attempt in range(SETUPS):
        home = workdir / f"setup{attempt}"
        home.mkdir()
        config = BetweennessConfig(backend="arrays", **workload.config(home))
        started = time.perf_counter()
        session = BetweennessSession(graph, config)
        setup_seconds.append(time.perf_counter() - started)
        children.update((c.pid, c) for c in multiprocessing.active_children())
        if attempt < SETUPS - 1:
            session.close()
            shutil.rmtree(home)
    measured = Measured(setup_seconds)
    probe = _SessionProbe(session, recorder) if recorder is not None else None
    try:
        for index, batch in enumerate(batches):
            timed = index >= workload.warmup
            if index == workload.warmup:
                if probe is not None:
                    probe.start()
                timed_start = time.perf_counter()
            if recorder is not None:
                recorder.op = index
            submitted = time.perf_counter()
            session.apply_batch(batch)
            applied = time.perf_counter()
            session.top_k(10)
            readable = time.perf_counter()
            if session.batches_applied != index + 1:
                raise GateFailure(f"the read after batch {index} does not reflect it")
            if timed:
                measured.update_seconds.append(readable - submitted)
                measured.read_seconds.append(readable - applied)
                done = index + 1 - workload.warmup
                if workload.checkpoint_every and done % workload.checkpoint_every == 0:
                    session.checkpoint()
        timed_end = time.perf_counter()
        measured.timed_seconds = timed_end - timed_start
        measured.timed_updates = sum(len(b) for b in batches[workload.warmup:])
        measured.attempted = 2 * len(batches)
        if probe is not None:
            measured.notes.update(
                probe.stop(home),
                setup_window=(started, started + setup_seconds[-1]),
                timed_window=(timed_start, timed_end),
                covered_s=sum(
                    s.seconds
                    for s in recorder.between(timed_start, timed_end)
                    if s.parent is None
                ),
            )
            if config.executor == "shard":
                measured.notes["shard_init_seconds"] = session.engine.init_seconds
            if workload.batch_size == 1:
                measured.notes["kinds"] = _kinds(b[0] for b in batches)
        measured.vertex_scores = session.vertex_betweenness()
        measured.edge_scores = session.edge_betweenness()
    finally:
        session.close()
    if recorder is not None and config.executor == "shard":
        measured.notes.update(
            _serial_baseline(workload, graph, batches, measured.update_seconds)
        )
    return measured


def _serial_baseline(
    workload: Workload,
    graph: Graph,
    batches: List[List[EdgeUpdate]],
    sharded_seconds: List[float],
) -> Dict[str, float]:
    """The first timed batches again on one serial session, same batch
    size, so ``parallel.speedup`` has its base."""
    count = min(BASELINE_BATCHES, len(sharded_seconds))
    config = BetweennessConfig(backend="arrays", store="arrays://")
    with BetweennessSession(graph, config) as session:
        for batch in batches[:workload.warmup]:
            session.apply_batch(batch)
        began = time.perf_counter()
        for batch in batches[workload.warmup:workload.warmup + count]:
            session.apply_batch(batch)
            session.top_k(10)
        serial = time.perf_counter() - began
    return {"serial_baseline_s": serial, "sharded_s": sum(sharded_seconds[:count])}


# --------------------------------------------------------------------- #
# The service workload
# --------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _ServerProcess:
    """``python -m repro.cli serve --impl asyncio`` as a child process."""

    def __init__(self, root: Path, children: Dict[int, Any]) -> None:
        self.port = _free_port()
        self.log = root.with_suffix(".log")
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--root", str(root), "--host", "127.0.0.1",
                    "--port", str(self.port), "--impl", "asyncio",
                    "--checkpoint-every", str(SERVICE_CHECKPOINT_EVERY),
                ],
                env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        children[self.process.pid] = self.process

    async def start(self) -> int:
        deadline = time.monotonic() + WAIT_SECONDS
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                async with ServiceClient("127.0.0.1", self.port) as probe:
                    status, _ = await probe.get("/healthz")
                    if status == 200:
                        return self.port
            except OSError:
                pass
            await asyncio.sleep(0.05)
        raise RuntimeError(
            "the server did not come up: "
            + self.log.read_text(errors="replace")[-2000:]
        )

    async def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=WAIT_SECONDS)
        except subprocess.TimeoutExpired:
            pass
        try:  # whatever is left of its process group
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=WAIT_SECONDS)


class _ServerInProcess:
    """The same server on this process's event loop, so that a traced run's
    wrappers see it."""

    def __init__(self, root: Path) -> None:
        self.server = ServiceServer(
            ServiceSettings(
                root=root, default_checkpoint_every=SERVICE_CHECKPOINT_EVERY
            )
        )

    async def start(self) -> int:
        return await self.server.start("127.0.0.1", 0)

    async def stop(self) -> None:
        await asyncio.wait_for(self.server.stop(), WAIT_SECONDS)


def _wire(update: EdgeUpdate) -> List[Any]:
    return [update.kind.value, update.u, update.v]


class _LoadGenerator:
    """Two connections to one session: a writer that submits an update and
    reads until it shows, and a reader that keeps asking for the top 10."""

    def __init__(self, port: int, name: str, recorder) -> None:
        self.port = port
        self.path = f"/sessions/{name}"
        self.recorder = recorder
        self.writer = ServiceClient("127.0.0.1", port)
        self.reader = ServiceClient("127.0.0.1", port)
        self.attempted = 0
        self.failed = 0
        self.sent: Dict[int, float] = {}  # batch index -> POST send time
        self.timing = False  # the reader's samples count (phase A)
        self.stopping = False
        self.bytes_in = 0
        self.bytes_out = 0

    async def call(self, client, span, method, path, body=None, query=None):
        """One HTTP call; a timeout or a non-200 counts as a failed
        operation and returns ``None``."""
        self.attempted += 1
        recorder = self.recorder
        opened = recorder.begin(span, "client", nest=False) if recorder else None
        try:
            status, payload = await asyncio.wait_for(
                client.request(method, self.path + path, body=body, query=query),
                WAIT_SECONDS,
            )
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            status, payload = None, None
        finally:
            if opened is not None:
                recorder.finish(opened, nested=False)
        if opened is not None:  # the sizes the transport serialised
            if body is not None:
                self.bytes_in += len(json.dumps(body))
            self.bytes_out += len(json.dumps(payload, separators=(",", ":")))
        if status != 200:
            self.failed += 1
            return None
        return payload

    async def submit(self, index: int, update: EdgeUpdate):
        """POST one update, then read the top 10 until it reflects the
        update.  Returns the time it became readable, ``None`` on failure."""
        if self.recorder is not None:
            self.recorder.op = index
        self.sent[index] = time.perf_counter()
        summary = await self.call(
            self.writer, "client.post", "POST", "/updates",
            body={"updates": [_wire(update)]},
        )
        while summary is not None:
            top = await self.call(
                self.writer, "client.poll", "GET", "/top_k", query={"k": 10}
            )
            if top is None:
                return None
            if top["batches_applied"] > summary["batch_index"]:
                return time.perf_counter()
        return None

    async def read_until_stopped(self, samples: List[float]):
        """The concurrent reader; samples count while ``self.timing``.
        It ends on ``self.stopping`` rather than on cancellation alone:
        before Python 3.12 ``wait_for`` can swallow a cancel that races
        with the reply."""
        while not self.stopping:
            began = time.perf_counter()
            top = await self.call(
                self.reader, "client.read", "GET", "/top_k", query={"k": 10}
            )
            if top is not None and self.timing:
                samples.append(time.perf_counter() - began)
            await asyncio.sleep(READER_THINK_SECONDS)

    async def listen(self, name: str, frames: Dict[int, float], lagged: List[int]):
        """Traced runs only: one SSE subscriber on a third connection."""
        async for frame in ServiceClient("127.0.0.1", self.port).events(name):
            if frame["type"] == "batch_applied":
                frames[frame["batch_index"]] = time.perf_counter()
            elif frame["type"] == "lagged":
                lagged.append(frame["dropped"])

    async def scores(self) -> Tuple[Dict[Any, float], Dict[Any, float]]:
        vertex = await self.call(self.writer, "client.scores", "GET", "/scores")
        edge = await self.call(
            self.writer, "client.scores", "GET", "/scores", query={"edges": "true"}
        )
        if vertex is None or edge is None:
            raise GateFailure("GET /scores failed")
        return (
            {v: s for v, s in vertex["scores"]},
            {tuple(e): s for e, s in edge["scores"]},
        )

    async def close(self) -> None:
        await self.writer.close()
        await self.reader.close()


async def _run_service(
    workload: Workload,
    graph: Graph,
    updates: List[EdgeUpdate],
    workdir: Path,
    children: Dict[int, Any],
    recorder,
) -> Measured:
    root = workdir / "service"
    server = (
        _ServerProcess(root, children) if recorder is None else _ServerInProcess(root)
    )
    edges = [list(edge) for edge in graph.edge_list()]
    try:
        port = await server.start()
        measured = await _drive_service(
            workload, edges, updates, port, server, recorder
        )
    finally:
        await server.stop()

    # Exact gate: the service applied each update as its own batch on a
    # serial session, so an in-process replay must give the same bits.
    # (The graph is rebuilt from the posted edge list, as the server did:
    # vertex order fixes the order of float accumulation.)
    config = BetweennessConfig(backend="arrays", store="arrays://")
    with BetweennessSession(Graph.from_edges(edges), config) as replay:
        for update in updates:
            replay.apply_batch([update])
        if (
            replay.vertex_betweenness() != measured.vertex_scores
            or replay.edge_betweenness() != measured.edge_scores
        ):
            raise GateFailure("GET /scores differs from an in-process replay")
    return measured


async def _drive_service(
    workload: Workload,
    edges: List[List[Any]],
    updates: List[EdgeUpdate],
    port: int,
    server,
    recorder,
) -> Measured:
    setup_seconds = []
    async with ServiceClient("127.0.0.1", port) as admin:
        for attempt in range(SETUPS):
            name = f"bench{attempt}"
            started = time.perf_counter()
            await asyncio.wait_for(
                admin.create_session(
                    name,
                    edges=edges,
                    config={"backend": "arrays", "store": "arrays://"},
                    checkpoint_every=SERVICE_CHECKPOINT_EVERY,
                ),
                WAIT_SECONDS,
            )
            setup_seconds.append(time.perf_counter() - started)
            if attempt < SETUPS - 1:
                await asyncio.wait_for(
                    admin.delete_session(name, purge=True), WAIT_SECONDS
                )
    measured = Measured(setup_seconds)
    load = _LoadGenerator(port, name, recorder)
    tasks = [asyncio.create_task(load.read_until_stopped(measured.read_seconds))]
    frames: Dict[int, float] = {}
    lagged: List[int] = []
    probe = None
    if recorder is not None:
        tasks.append(asyncio.create_task(load.listen(name, frames, lagged)))
        await asyncio.sleep(0.1)  # let the stream attach
        probe = _SessionProbe(server.server.registry.get(name).session, recorder)
    try:
        for index in range(workload.warmup):
            await load.submit(index, updates[index])

        # Phase A, closed loop: the next update is sent when the last one
        # is readable.
        if probe is not None:
            probe.start()
        load.timing = True
        timed_start = time.perf_counter()
        first = workload.warmup + workload.timed
        for index in range(workload.warmup, first):
            submitted = time.perf_counter()
            readable = await load.submit(index, updates[index])
            if readable is not None:
                measured.update_seconds.append(readable - submitted)
        closed_end = time.perf_counter()
        load.timing = False
        measured.timed_seconds = closed_end - timed_start
        measured.timed_updates = workload.timed

        # Phase B, open loop: updates fall due on a fixed schedule and are
        # timed from their due time, so a stall is charged to every update
        # it delays.  An update is missed when its scores are not readable
        # before the next one arrives (the paper's Table 5 quantity).
        gap = 1.0 / workload.online_rate
        origin = time.perf_counter()
        online, late, missed, idle = [], [], 0, 0.0
        for slot, index in enumerate(range(first, len(updates))):
            due = origin + slot * gap
            wait = max(0.0, due - time.perf_counter())
            await asyncio.sleep(wait)
            idle += wait
            late.append(time.perf_counter() - due)
            readable = await load.submit(index, updates[index])
            if readable is None or readable > due + gap:
                missed += 1
            if readable is not None:
                online.append(readable - due)
        timed_end = time.perf_counter()

        measured.vertex_scores, measured.edge_scores = await load.scores()
        measured.attempted, measured.failed = load.attempted, load.failed
        measured.extras = {
            "online_ms_p50": (metrics.median_ms(online), "ms"),
            "online_missed_ratio": (missed / workload.online, "ratio"),
        }
        if probe is not None:
            measured.notes.update(
                probe.stop(None),
                kinds=_kinds(updates),
                setup_window=(started, started + setup_seconds[-1]),
                timed_window=(timed_start, timed_end),
                # The writer's timeline: its calls, plus phase B's waits
                # for the next due time (the schedule's, not lost work).
                covered_s=idle + sum(
                    s.seconds
                    for s in recorder.between(
                        timed_start, timed_end, ("client.post", "client.poll")
                    )
                ),
                service={
                    "json_bytes_in": load.bytes_in,
                    "json_bytes_out": load.bytes_out,
                    "sse_ms_p50": metrics.median_ms(
                        [at - load.sent[i] for i, at in frames.items() if i >= workload.warmup]
                    ),
                    "sse_frames": len(frames),
                    "sse_lagged": sum(lagged),
                    "generator_late_ms_max": max(late) * 1e3,
                },
            )
    finally:
        load.stopping = True
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await load.close()
    return measured
