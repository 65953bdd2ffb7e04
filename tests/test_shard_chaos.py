"""Chaos suite: SIGKILL shard workers mid-stream, demand bit-identical scores.

The sharded executor's recovery contract is exact, not approximate: a
replacement worker is re-seeded from the dead shard's checkpoint sidecar
(graph adjacency in iteration order + records in store insertion order) and
replays the logged batches with the original adoption decisions, so it
accumulates every float in the same order the dead worker would have.  These
tests therefore assert ``==`` between chaos runs, clean runs and an
in-process per-shard serial reference — tolerances would hide a broken
replay path.

Fault injection uses the coordinator's test-only ``chaos`` hook
(``{shard_id: {"cursor": k, "when": "before"|"after"}}``): the worker
SIGKILLs itself either on receipt of batch ``k`` or after applying it but
before acknowledging — the worst case, where computed state is lost and must
be reconstructed.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import (
    BetweennessConfig,
    BetweennessSession,
    ShardRecovered,
    WorkerFailed,
    resume_session,
)
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.updates import UpdateKind, validate_batch
from repro.exceptions import WorkerFailedError
from repro.graph import Graph
from repro.parallel import ShardCoordinator
from repro.parallel.shards import merge_partial_scores
from repro.storage.buffers import active_segments
from repro.storage.partition import partition_sources
from repro.storage.shard import ShardLayout, pick_shard

from tests.helpers import (
    assert_scores_equal,
    process_alive,
    random_connected_graph,
    wait_until,
)

NUM_SHARDS = 3
CHECKPOINT_EVERY = 2
STREAM_LENGTH = 8
#: The seed fixing which batch the chaos kill lands on.
KILL_SEED = 0xC4A05


def build_graph(directed: bool) -> Graph:
    if not directed:
        return random_connected_graph(14, 0.15, seed=31)
    rng = random.Random(31)
    graph = Graph(directed=True)
    graph.add_vertex(0)
    for vertex in range(1, 12):
        anchor = rng.randrange(vertex)
        if rng.random() < 0.5:
            graph.add_edge(anchor, vertex)
        else:
            graph.add_edge(vertex, anchor)
    for _ in range(10):
        u, v = rng.sample(range(12), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def update_stream(graph: Graph, length: int = STREAM_LENGTH, seed: int = 32):
    """Deterministic mixed stream: additions, removals and vertex births."""
    rng = random.Random(seed)
    shadow = graph.copy()
    next_vertex = 1000
    updates = []
    while len(updates) < length:
        roll = rng.random()
        edges = shadow.edge_list()
        if roll < 0.3 and len(edges) > shadow.num_vertices // 2:
            u, v = edges[rng.randrange(len(edges))]
            updates.append(EdgeUpdate.removal(u, v))
            shadow.remove_edge(u, v)
        elif roll < 0.55:
            vertices = shadow.vertex_list()
            anchor = vertices[rng.randrange(len(vertices))]
            if shadow.directed and rng.random() < 0.5:
                u, v = next_vertex, anchor
            else:
                u, v = anchor, next_vertex
            updates.append(EdgeUpdate.addition(u, v))
            shadow.add_edge(u, v)
            next_vertex += 1
        else:
            vertices = shadow.vertex_list()
            candidates = [
                (u, v)
                for u in vertices
                for v in vertices
                if u != v and not shadow.has_edge(u, v)
            ]
            if not candidates:
                continue
            u, v = candidates[rng.randrange(len(candidates))]
            updates.append(EdgeUpdate.addition(u, v))
            shadow.add_edge(u, v)
    return updates


def shard_run(graph, root, updates, chaos=None, events=None):
    """One full coordinator run (batch size 1); returns both score dicts."""
    layout = ShardLayout(
        root=root, num_shards=NUM_SHARDS, checkpoint_every=CHECKPOINT_EVERY
    )
    notify = None
    if events is not None:
        notify = lambda kind, **fields: events.append((kind, fields))
    with ShardCoordinator(
        graph, layout, notify=notify, chaos=chaos
    ) as coordinator:
        for update in updates:
            coordinator.apply_batch([update])
        return coordinator.betweenness()


def per_shard_serial_reference(graph, updates):
    """The sharded computation, run serially in-process: the exact oracle.

    Mirrors the coordinator's dispatch loop — same source partition, same
    ``pick_shard`` adoptions, same per-batch apply order, same stable-order
    merge — without any worker processes, so every float lands in the same
    order as in the distributed run.
    """
    partitions = partition_sources(graph.vertex_list(), NUM_SHARDS)
    frameworks = [
        IncrementalBetweenness(graph.copy(), sources=list(p.sources))
        for p in partitions
    ]
    shard_sizes = [len(p.sources) for p in partitions]
    driver = graph.copy()
    for update in updates:
        batch = [update]
        births = validate_batch(driver, batch)
        adopt = [[] for _ in range(NUM_SHARDS)]
        for vertex in births:
            shard_id = pick_shard(shard_sizes)
            adopt[shard_id].append(vertex)
            shard_sizes[shard_id] += 1
        for shard_id, framework in enumerate(frameworks):
            framework.apply_updates(batch, adopt=adopt[shard_id] or None)
        u, v = update.endpoints
        if update.kind is UpdateKind.ADDITION:
            driver.add_edge(u, v)
        else:
            driver.remove_edge(u, v)
    vertex = merge_partial_scores([f.vertex_betweenness() for f in frameworks])
    edge = merge_partial_scores([f.edge_betweenness() for f in frameworks])
    return vertex, edge


def unpartitioned_serial(graph, updates):
    framework = IncrementalBetweenness(graph.copy())
    for update in updates:
        framework.apply(update)
    return framework


@pytest.mark.parametrize("directed", [False, True])
class TestCleanShardRuns:
    def test_matches_per_shard_reference_exactly(self, tmp_path, directed):
        graph = build_graph(directed)
        updates = update_stream(graph)
        vertex, edge = shard_run(graph, tmp_path / "shards", updates)
        ref_vertex, ref_edge = per_shard_serial_reference(graph, updates)
        assert vertex == ref_vertex
        assert edge == ref_edge

    def test_matches_unpartitioned_serial_within_tolerance(
        self, tmp_path, directed
    ):
        """Partition-grouped summation differs from the flat serial sum only
        by float associativity (documented in ``merge_partial_scores``)."""
        graph = build_graph(directed)
        updates = update_stream(graph)
        vertex, edge = shard_run(graph, tmp_path / "shards", updates)
        serial = unpartitioned_serial(graph, updates)
        assert_scores_equal(vertex, serial.vertex_betweenness(), 1e-8, "vertex")
        assert_scores_equal(edge, serial.edge_betweenness(), 1e-8, "edge")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("when", ["before", "after"])
class TestSeededKill:
    def test_kill_mid_stream_is_bit_identical(self, tmp_path, directed, when):
        """ISSUE acceptance: kill a worker at a seeded random batch index;
        final scores must be exactly ``==`` the clean run's."""
        graph = build_graph(directed)
        updates = update_stream(graph)
        rng = random.Random(KILL_SEED)
        kill_cursor = rng.randrange(len(updates))
        kill_shard = rng.randrange(NUM_SHARDS)

        clean = shard_run(graph, tmp_path / "clean", updates)
        events = []
        chaotic = shard_run(
            graph,
            tmp_path / "chaos",
            updates,
            chaos={kill_shard: {"cursor": kill_cursor, "when": when}},
            events=events,
        )
        assert chaotic[0] == clean[0]
        assert chaotic[1] == clean[1]

        failures = [f for kind, f in events if kind == "worker_failed"]
        recoveries = [f for kind, f in events if kind == "shard_recovered"]
        assert [f["shard"] for f in failures] == [kill_shard]
        assert [f["shard"] for f in recoveries] == [kill_shard]
        assert failures[0]["batch_cursor"] == kill_cursor
        # The replacement replays exactly the batches its sidecar predates.
        expected_replay = kill_cursor - (
            kill_cursor // CHECKPOINT_EVERY
        ) * CHECKPOINT_EVERY
        assert recoveries[0]["replayed_batches"] == expected_replay


class TestHarderKillSchedules:
    def test_kill_on_first_batch_recovers_from_round_zero(self, tmp_path):
        """Round 0 runs at bootstrap, so even a worker that dies on its very
        first batch has a checkpoint to be re-seeded from."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        clean = shard_run(graph, tmp_path / "clean", updates)
        events = []
        chaotic = shard_run(
            graph,
            tmp_path / "chaos",
            updates,
            chaos={0: {"cursor": 0, "when": "before"}},
            events=events,
        )
        assert chaotic[0] == clean[0]
        assert chaotic[1] == clean[1]
        assert [f["shard"] for kind, f in events if kind == "shard_recovered"] == [0]

    def test_kills_on_two_shards_at_different_cursors(self, tmp_path):
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        clean = shard_run(graph, tmp_path / "clean", updates)
        events = []
        chaotic = shard_run(
            graph,
            tmp_path / "chaos",
            updates,
            chaos={
                1: {"cursor": 4, "when": "after"},
                2: {"cursor": 3, "when": "before"},
            },
            events=events,
        )
        assert chaotic[0] == clean[0]
        assert chaotic[1] == clean[1]
        recovered = sorted(f["shard"] for kind, f in events if kind == "shard_recovered")
        assert recovered == [1, 2]


class TestExternalKill:
    """A worker killed from outside, between batches: recovery must stay
    bit-identical and leave no segment behind."""

    def test_external_sigkill_between_batches_recovers_exactly(self, tmp_path):
        """SIGKILL from outside (no chaos cooperation) while the worker
        idles on its pipe; the coordinator must replace it and finish with
        exact scores."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        clean = shard_run(graph, tmp_path / "clean", updates)

        layout = ShardLayout(
            root=tmp_path / "killed",
            num_shards=NUM_SHARDS,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        with ShardCoordinator(graph, layout) as coordinator:
            for update in updates[:3]:
                coordinator.apply_batch([update])
            victim = coordinator._handles[2]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            for update in updates[3:]:
                coordinator.apply_batch([update])
            chaotic = coordinator.betweenness()
        assert chaotic[0] == clean[0]
        assert chaotic[1] == clean[1]
        assert active_segments() == []


class TestSpawnStartMethod:
    """Where ``fork`` is missing the coordinator falls back to ``spawn``,
    which pickles each worker's start payload (the adjacency payload and
    orientation) instead of inheriting it; the scores must not move."""

    @staticmethod
    def _run(graph, updates):
        with ShardCoordinator(graph, num_workers=2) as coordinator:
            for update in updates:
                coordinator.apply_batch([update])
            method = coordinator._context.get_start_method()
            return method, coordinator.betweenness()

    @pytest.mark.parametrize(
        "directed", [False, True], ids=["undirected", "directed"]
    )
    def test_spawn_run_equals_fork_run(self, directed, monkeypatch):
        graph = build_graph(directed)
        updates = update_stream(graph)
        assert validate_batch(graph, updates), "the stream must carry a birth"
        forked = self._run(graph, updates)

        real_get_context = multiprocessing.get_context

        def without_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", without_fork)
        spawned = self._run(graph, updates)
        assert (forked[0], spawned[0]) == ("fork", "spawn")
        assert spawned[1][0] == forked[1][0]
        assert spawned[1][1] == forked[1][1]


#: A driver that builds a two-worker pool, applies three batches, reports
#: its workers, its segments and whether it started a resource tracker, and
#: then idles until it is SIGKILLed.
_DRIVER_SCRIPT = """
import json, sys, time
from multiprocessing import resource_tracker
from pathlib import Path
from repro.parallel import ShardCoordinator
from repro.storage.buffers import active_segments
from repro.storage.shard import ShardLayout
from tests.test_shard_chaos import build_graph, update_stream

root = sys.argv[1]
layout = (
    ShardLayout(root=Path(root), num_shards=2, checkpoint_every=2) if root else None
)
graph = build_graph(False)
coordinator = ShardCoordinator(graph, layout, num_workers=2)
for update in update_stream(graph)[:3]:
    coordinator.apply_batch([update])
print(json.dumps({
    "workers": [handle.process.pid for handle in coordinator._handles],
    "segments": active_segments(),
    "resource_tracker": resource_tracker._resource_tracker._pid,
}), flush=True)
time.sleep(120)
"""


class TestDriverDeathAndWedgedWorkers:
    """Neither a dead driver nor a wedged worker may leave a process behind
    — with or without a shard root."""

    @pytest.mark.parametrize("durable", [False, True], ids=["no-layout", "layout"])
    def test_sigkilled_driver_takes_its_workers_and_segments_along(
        self, tmp_path, durable
    ):
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(repo_root / "src"), str(repo_root)])
        driver = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _DRIVER_SCRIPT,
                str(tmp_path / "root") if durable else "",
            ],
            env=env,
            stdout=subprocess.PIPE,
        )
        workers = []
        try:
            report = json.loads(driver.stdout.readline())
            workers = report["workers"]
            assert len(workers) == 2 and all(map(process_alive, workers))
            # Workers share nothing with the driver but their pipes: no
            # segment, so no resource tracker to outlive the driver either.
            assert report["segments"] == []
            assert report["resource_tracker"] is None
            driver.kill()  # SIGKILL: no close(), no atexit, no finalizers
            driver.wait(timeout=10)
            assert wait_until(
                lambda: not any(map(process_alive, workers)), timeout=5.0
            ), "workers outlived their SIGKILLed driver"
        finally:
            driver.kill()
            driver.wait(timeout=10)
            driver.stdout.close()
            for pid in filter(process_alive, workers):
                os.kill(pid, signal.SIGKILL)

    def test_wedged_worker_is_killed_and_its_shard_recovered(self, tmp_path):
        """SIGSTOP is the wedge SIGTERM cannot clear: the stopped worker
        stays silent past ``recv_timeout``, must be SIGKILLed (not
        abandoned), and its shard replayed to the exact same scores."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        clean = shard_run(graph, tmp_path / "clean", updates)

        layout = ShardLayout(
            root=tmp_path / "wedged",
            num_shards=NUM_SHARDS,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        kinds = []
        coordinator = ShardCoordinator(
            graph,
            layout,
            recv_timeout=0.5,
            notify=lambda kind, **fields: kinds.append(kind),
        )
        victim = coordinator._handles[1].process.pid
        try:
            for update in updates[:3]:
                coordinator.apply_batch([update])
            os.kill(victim, signal.SIGSTOP)
            del kinds[:]
            started = time.monotonic()
            coordinator.apply_batch([updates[3]])
            assert time.monotonic() - started < 3.0
            assert kinds[:2] == ["worker_failed", "shard_recovered"]
            assert not process_alive(victim)
            for update in updates[4:]:
                coordinator.apply_batch([update])
            wedged = coordinator.betweenness()
        finally:
            coordinator.close()
            if process_alive(victim):
                os.kill(victim, signal.SIGKILL)
        assert wedged[0] == clean[0]
        assert wedged[1] == clean[1]

    def test_wedged_worker_without_a_root_is_a_prompt_terminal_error(self):
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        cluster = ShardCoordinator(graph, num_workers=2, recv_timeout=0.5)
        workers = [handle.process.pid for handle in cluster._handles]
        try:
            cluster.apply_batch([updates[0]])
            os.kill(workers[1], signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(WorkerFailedError, match="did not reply"):
                cluster.apply_batch([updates[1]])
            assert time.monotonic() - started < 3.0
            assert not any(map(process_alive, workers))
        finally:
            cluster.close()
            for pid in filter(process_alive, workers):
                os.kill(pid, signal.SIGKILL)


class TestSessionLevelFaults:
    def _config(self, root, directed):
        return BetweennessConfig(
            executor="shard",
            workers=NUM_SHARDS,
            directed=directed,
            store=(
                f"shard://{root}?shards={NUM_SHARDS}"
                f"&checkpoint_every={CHECKPOINT_EVERY}"
            ),
        )

    def test_external_sigkill_emits_events_and_keeps_scores_exact(self, tmp_path):
        """Kill a worker process from the outside (no cooperation from the
        worker) mid-stream; the session must emit ``WorkerFailed`` then
        ``ShardRecovered`` and still finish with exact scores."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        events = []
        config = self._config(tmp_path / "shards", directed=False)
        with BetweennessSession(graph, config, subscribers=[events.append]) as session:
            for update in updates[:3]:
                session.apply(update)
            victim = session._cluster._handles[1]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            for update in updates[3:]:
                session.apply(update)
            vertex = session.vertex_betweenness()
            edge = session.edge_betweenness()

        ref_vertex, ref_edge = per_shard_serial_reference(graph, updates)
        assert vertex == ref_vertex
        assert edge == ref_edge
        failed = [e for e in events if isinstance(e, WorkerFailed)]
        recovered = [e for e in events if isinstance(e, ShardRecovered)]
        assert [e.shard for e in failed] == [1]
        assert [e.shard for e in recovered] == [1]
        kill_index = events.index(failed[0])
        assert events.index(recovered[0]) == kill_index + 1

    def test_resume_session_from_disk_alone(self, tmp_path):
        """Close a sharded session mid-history and restore it from nothing
        but the shard root: scores, cursor and adoption state all survive,
        and continuing the stream stays bit-identical."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        root = tmp_path / "shards"
        config = self._config(root, directed=False)
        with BetweennessSession(graph, config, subscribers=[]) as session:
            for update in updates[:5]:
                session.apply(update)
            expected_mid = session.vertex_betweenness()

        resumed = resume_session(root)
        try:
            assert resumed.config.executor == "shard"
            assert resumed.vertex_betweenness() == expected_mid
            for update in updates[5:]:
                resumed.apply(update)
            vertex = resumed.vertex_betweenness()
            edge = resumed.edge_betweenness()
        finally:
            resumed.close()

        ref_vertex, ref_edge = per_shard_serial_reference(graph, updates)
        assert vertex == ref_vertex
        assert edge == ref_edge

    def test_resume_after_chaos_run(self, tmp_path):
        """A root written by a run that survived kills is as resumable as a
        clean one — recovery leaves no scars on disk."""
        graph = build_graph(directed=False)
        updates = update_stream(graph)
        root = tmp_path / "shards"
        layout = ShardLayout(
            root=root, num_shards=NUM_SHARDS, checkpoint_every=CHECKPOINT_EVERY
        )
        with ShardCoordinator(
            graph, layout, chaos={0: {"cursor": 2, "when": "after"}}
        ) as coordinator:
            for update in updates[:6]:
                coordinator.apply_batch([update])

        resumed = ShardCoordinator.resume(root)
        try:
            assert resumed.batch_cursor == 6
            for update in updates[6:]:
                resumed.apply_batch([update])
            vertex, edge = resumed.betweenness()
        finally:
            resumed.close()
        ref_vertex, ref_edge = per_shard_serial_reference(graph, updates)
        assert vertex == ref_vertex
        assert edge == ref_edge
