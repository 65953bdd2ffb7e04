"""Shard layout, manifest and coordinator lifecycle (non-chaos paths).

The kill/recovery behaviour itself is pinned by ``tests/test_shard_chaos.py``;
this module covers the deterministic machinery around it: ``shard://`` URI
resolution, the on-disk layout and manifest codec, the ``pick_shard``
rebalancing rule, and the coordinator's refusal paths.
"""

import os
import random

import pytest

from repro.core import EdgeUpdate
from repro.core.checkpoint import load_checkpoint
from repro.exceptions import (
    ConfigurationError,
    StoreCorruptedError,
    WorkerFailedError,
)
from repro.parallel import ShardCoordinator
from repro.storage import create_store, parse_store_uri
from repro.storage.shard import (
    DEFAULT_CHECKPOINT_EVERY,
    ShardLayout,
    ShardManifest,
    load_manifest,
    pick_shard,
)

from tests.helpers import random_connected_graph


class TestShardURI:
    def test_uri_resolves_to_layout(self):
        layout = ShardLayout.from_uri("shard:///var/data/bc?shards=8&checkpoint_every=4")
        assert str(layout.root) == "/var/data/bc"
        assert layout.num_shards == 8
        assert layout.checkpoint_every == 4

    def test_defaults(self):
        layout = ShardLayout.from_uri("shard:///var/data/bc")
        assert layout.num_shards == 1
        assert layout.checkpoint_every == DEFAULT_CHECKPOINT_EVERY

    def test_workers_fill_in_when_uri_is_silent(self):
        layout = ShardLayout.from_uri("shard:///var/data/bc", workers=6)
        assert layout.num_shards == 6

    def test_workers_must_agree_with_shards_param(self):
        assert ShardLayout.from_uri("shard:///d?shards=4", workers=4).num_shards == 4
        assert ShardLayout.from_uri("shard:///d?shards=4", workers=1).num_shards == 4
        with pytest.raises(ConfigurationError, match="workers=3"):
            ShardLayout.from_uri("shard:///d?shards=4", workers=3)

    @pytest.mark.parametrize(
        "uri",
        [
            "shard://",                       # no root directory
            "shard:///d?shards=0",            # < 1
            "shard:///d?shards=two",          # not an integer
            "shard:///d?checkpoint_every=0",
            "shard:///d?wibble=1",            # unknown param
        ],
    )
    def test_bad_uris_rejected(self, uri):
        with pytest.raises(ConfigurationError):
            ShardLayout.from_uri(uri)

    def test_non_shard_uri_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardLayout.from_uri("disk:///var/data/bd.bin")

    def test_uri_parses_through_the_registry(self):
        parsed = parse_store_uri("shard:///d?shards=2&checkpoint_every=8")
        assert parsed.scheme == "shard"
        assert parsed.params == {"shards": "2", "checkpoint_every": "8"}

    def test_shard_uri_is_not_openable_as_a_single_store(self):
        """The registry resolves every scheme, but a shard ensemble is not a
        store — the factory must say so, pointing at the shard executor."""
        with pytest.raises(ConfigurationError, match="shard"):
            create_store("shard:///var/data/bc?shards=2", [0, 1, 2])


class TestLayoutPaths:
    def test_deterministic_paths(self, tmp_path):
        layout = ShardLayout(root=tmp_path, num_shards=3, checkpoint_every=4)
        assert layout.manifest_path == tmp_path / "manifest.bin"
        assert layout.shard_dir(2) == tmp_path / "shard-0002"
        assert layout.checkpoint_path(2) == tmp_path / "shard-0002" / "checkpoint.bin"

    def test_is_shard_root(self, tmp_path):
        layout = ShardLayout(root=tmp_path, num_shards=1, checkpoint_every=4)
        assert not ShardLayout.is_shard_root(tmp_path)
        layout.write_manifest(
            ShardManifest(
                num_shards=1,
                checkpoint_every=4,
                backend="dicts",
                directed=False,
                batch_cursor=0,
                shard_sizes=[5],
            )
        )
        assert ShardLayout.is_shard_root(tmp_path)
        assert ShardLayout.is_shard_root(tmp_path / "manifest.bin")
        assert not ShardLayout.is_shard_root(tmp_path / "absent" / "manifest.bin")


class TestManifest:
    def _manifest(self):
        return ShardManifest(
            num_shards=2,
            checkpoint_every=4,
            backend="arrays",
            directed=True,
            batch_cursor=12,
            assignment=[[1000, 0], [1001, 1]],
            shard_sizes=[8, 7],
            config={"backend": "arrays"},
        )

    def test_round_trip(self, tmp_path):
        layout = ShardLayout(root=tmp_path, num_shards=2, checkpoint_every=4)
        layout.write_manifest(self._manifest())
        loaded = layout.read_manifest()
        assert loaded == self._manifest()
        assert loaded.assignment_map() == {1000: 0, 1001: 1}

    def test_load_manifest_discovers_shard_count(self, tmp_path):
        ShardLayout(root=tmp_path, num_shards=2, checkpoint_every=4).write_manifest(
            self._manifest()
        )
        assert load_manifest(tmp_path).num_shards == 2

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a shard root"):
            load_manifest(tmp_path / "nowhere")

    def test_shard_count_mismatch_refused(self, tmp_path):
        ShardLayout(root=tmp_path, num_shards=2, checkpoint_every=4).write_manifest(
            self._manifest()
        )
        wrong = ShardLayout(root=tmp_path, num_shards=3, checkpoint_every=4)
        with pytest.raises(ConfigurationError, match="resharding"):
            wrong.read_manifest()


class TestPickShard:
    def test_least_loaded_wins(self):
        assert pick_shard([3, 1, 2]) == 1

    def test_ties_break_to_lowest_id(self):
        assert pick_shard([2, 1, 1]) == 1
        assert pick_shard([0, 0, 0]) == 0

    def test_is_a_pure_function_of_the_size_history(self):
        """Replaying the same birth sequence from the same starting sizes
        reproduces the same assignment — the property coordinator restarts
        and shard recovery both lean on."""
        rng = random.Random(7)
        for _ in range(25):
            sizes = [rng.randrange(10) for _ in range(4)]
            first, second = [], []
            for run in (first, second):
                scratch = list(sizes)
                for _ in range(12):
                    shard = pick_shard(scratch)
                    scratch[shard] += 1
                    run.append(shard)
            assert first == second

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            pick_shard([])


class TestCoordinatorLifecycle:
    def _layout(self, tmp_path, shards=2, every=2):
        return ShardLayout(
            root=tmp_path / "shards", num_shards=shards, checkpoint_every=every
        )

    def test_fresh_root_refuses_reinitialisation(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path)
        with ShardCoordinator(graph, layout):
            pass
        with pytest.raises(ConfigurationError, match="already initialised"):
            ShardCoordinator(graph, layout)

    def test_resume_refuses_a_root_that_never_existed(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a shard root"):
            ShardCoordinator.resume(tmp_path / "nowhere")

    def test_bootstrap_writes_round_zero(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path)
        with ShardCoordinator(graph, layout) as coordinator:
            assert coordinator.last_checkpoint_cursor == 0
            for shard_id in range(layout.num_shards):
                shard_dir = layout.shard_dir(shard_id)
                assert [p.name for p in shard_dir.iterdir()] == ["checkpoint.bin"]
                assert load_checkpoint(shard_dir / "checkpoint.bin").batch_cursor == 0
            assert layout.manifest_path.exists()

    def test_round_fsyncs_each_sidecar_before_the_manifest(
        self, tmp_path, monkeypatch
    ):
        """The manifest's cursor is the ensemble's authority, so every shard
        sidecar of a round must be durable before the manifest names that
        round.  The workers are forked, so the recorder appends to a log
        file."""
        log = tmp_path / "fsync.log"
        real_fsync = os.fsync

        def recording_fsync(fd):
            stat = os.fstat(fd)
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{stat.st_dev}:{stat.st_ino}\n")
            real_fsync(fd)

        def identity(path):
            stat = os.stat(path)
            return f"{stat.st_dev}:{stat.st_ino}"

        monkeypatch.setattr("repro.storage.header.os.fsync", recording_fsync)
        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path)
        with ShardCoordinator(graph, layout):
            synced = log.read_text(encoding="utf-8").split()
            manifest = identity(layout.manifest_path)
            for shard_id in range(layout.num_shards):
                sidecar = identity(layout.checkpoint_path(shard_id))
                assert sidecar in synced
                assert synced.index(sidecar) < synced.index(manifest)

    def test_rounds_follow_the_cadence(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path, every=2)
        with ShardCoordinator(graph, layout) as coordinator:
            coordinator.add_edge(0, 100)
            assert coordinator.last_checkpoint_cursor == 0
            coordinator.add_edge(1, 101)
            assert coordinator.last_checkpoint_cursor == 2
            for shard_id in range(layout.num_shards):
                sidecar = load_checkpoint(layout.checkpoint_path(shard_id))
                assert sidecar.batch_cursor == 2
            assert load_manifest(layout.root).batch_cursor == 2

    def test_each_round_commits_one_sidecar_of_the_owned_rows(self, tmp_path):
        """After several rounds (with stream-born vertices adopted on the
        way) each shard directory holds only its sidecar, and the sidecar
        embeds a block of exactly the shard's sources by every vertex."""
        graph = random_connected_graph(9, 0.2, seed=6)
        layout = self._layout(tmp_path, shards=2, every=1)
        with ShardCoordinator(graph, layout, backend="arrays") as coordinator:
            for offset in range(3):
                coordinator.add_edge(offset, 100 + offset)
            owned = {
                p.worker_id: set(p.sources) for p in coordinator.partitions
            }
            for vertex in (100, 101, 102):
                owned[coordinator.shard_of(vertex)].add(vertex)
            vertices = set(coordinator.graph.vertices())
            for shard_id in range(layout.num_shards):
                shard_dir = layout.shard_dir(shard_id)
                assert [p.name for p in shard_dir.iterdir()] == ["checkpoint.bin"]
                sidecar = load_checkpoint(shard_dir / "checkpoint.bin")
                assert sidecar.batch_cursor == 3 and sidecar.store_path is None
                block = sidecar.columns
                assert set(block.sources) == owned[shard_id]
                assert set(block.vertices) == vertices
                assert block.delta.shape == (len(owned[shard_id]), len(vertices))

    def test_close_makes_the_tail_durable(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path, every=4)
        coordinator = ShardCoordinator(graph, layout)
        coordinator.add_edge(0, 100)
        coordinator.close()  # cursor 1 < cadence, but close checkpoints
        assert load_manifest(layout.root).batch_cursor == 1
        resumed = ShardCoordinator.resume(layout.root)
        try:
            assert resumed.batch_cursor == 1
            assert resumed.graph.has_edge(0, 100)
        finally:
            resumed.close()

    def test_closed_coordinator_refuses_use(self, tmp_path):
        graph = random_connected_graph(8, 0.2, seed=5)
        coordinator = ShardCoordinator(graph, self._layout(tmp_path))
        coordinator.close()
        coordinator.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            coordinator.add_edge(0, 100)

    def test_adoptions_survive_restart(self, tmp_path):
        """Stream-born vertices keep their shard across a coordinator
        restart: the manifest carries both the assignment and the sizes
        ``pick_shard`` is a function of."""
        graph = random_connected_graph(9, 0.2, seed=6)
        layout = self._layout(tmp_path, shards=3, every=1)
        with ShardCoordinator(graph, layout) as coordinator:
            coordinator.add_edge(0, 100)
            coordinator.add_edge(1, 101)
            before = {v: coordinator.shard_of(v) for v in (100, 101)}
            sizes_before = list(coordinator._shard_sizes)
        resumed = ShardCoordinator.resume(layout.root)
        try:
            assert {v: resumed.shard_of(v) for v in (100, 101)} == before
            assert resumed._shard_sizes == sizes_before
            assert resumed.shard_of(0) is None  # not stream-born
            resumed.add_edge(2, 102)
            # The next adoption continues the same deterministic sequence a
            # never-restarted coordinator would have produced.
            expected = pick_shard(sizes_before)
            assert resumed.shard_of(102) == expected
        finally:
            resumed.close()

    def test_deterministic_application_error_is_not_recovered(self, tmp_path):
        """A bad update is state, not a process failure: both sides validate
        it and the coordinator raises without burning recovery attempts."""
        from repro.exceptions import UpdateError

        graph = random_connected_graph(8, 0.2, seed=5)
        with ShardCoordinator(graph, self._layout(tmp_path)) as coordinator:
            with pytest.raises(UpdateError):
                coordinator.add_edge(0, 1)  # already present

    def test_unrecoverable_when_no_sidecar(self, tmp_path):
        """If a shard's sidecar vanishes, recovery must fail loudly instead
        of silently rebuilding from nothing."""
        import os
        import signal as _signal

        graph = random_connected_graph(8, 0.2, seed=5)
        layout = self._layout(tmp_path)
        coordinator = ShardCoordinator(graph, layout)
        try:
            layout.checkpoint_path(0).unlink()
            os.kill(coordinator._handles[0].process.pid, _signal.SIGKILL)
            coordinator._handles[0].process.join(timeout=10.0)
            with pytest.raises(WorkerFailedError, match="no checkpoint sidecar"):
                coordinator.add_edge(0, 100)
        finally:
            coordinator.close(checkpoint=False)


class TestCoordinatorReadsEachSidecarOnce:
    """The workers check their own sidecars (shard id, batch cursor) as they
    resume; the coordinator process loads a sidecar only for the graph."""

    @staticmethod
    def _spy(monkeypatch):
        import repro.parallel.shards as shards

        calls = []
        real = shards.load_checkpoint

        def counting(path):
            calls.append(os.getpid())
            return real(path)

        # Forked workers inherit the spy, but they count in their own copy
        # of ``calls``: only the coordinator process's loads land here.
        monkeypatch.setattr(shards, "load_checkpoint", counting)
        return calls

    def test_resume_loads_one_sidecar(self, tmp_path, monkeypatch):
        graph = random_connected_graph(10, 0.25, seed=4)
        layout = ShardLayout(root=tmp_path / "shards", num_shards=3, checkpoint_every=2)
        with ShardCoordinator(graph, layout) as coordinator:
            coordinator.add_edge(0, 100)
            scores = coordinator.betweenness()
        calls = self._spy(monkeypatch)
        resumed = ShardCoordinator.resume(layout.root)
        try:
            assert calls == [os.getpid()]
            assert resumed.betweenness() == scores
        finally:
            resumed.close(checkpoint=False)

    def test_recovery_loads_no_sidecar(self, tmp_path, monkeypatch):
        import signal

        graph = random_connected_graph(10, 0.25, seed=4)
        layout = ShardLayout(root=tmp_path / "shards", num_shards=2, checkpoint_every=4)
        coordinator = ShardCoordinator(graph, layout)
        try:
            coordinator.add_edge(0, 100)
            calls = self._spy(monkeypatch)
            events = []
            coordinator.notify = lambda kind, **fields: events.append((kind, fields))
            os.kill(coordinator._handles[1].process.pid, signal.SIGKILL)
            coordinator._handles[1].process.join(timeout=10.0)
            coordinator.add_edge(1, 101)
            recovered = [f for kind, f in events if kind == "shard_recovered"]
            assert [r["replayed_batches"] for r in recovered] == [1]
            assert calls == []
        finally:
            coordinator.close(checkpoint=False)

    def test_foreign_sidecar_is_refused_by_its_worker(self, tmp_path):
        import shutil

        graph = random_connected_graph(10, 0.25, seed=4)
        layout = ShardLayout(root=tmp_path / "shards", num_shards=2, checkpoint_every=2)
        with ShardCoordinator(graph, layout):
            pass
        shutil.copy(layout.checkpoint_path(0), layout.checkpoint_path(1))
        with pytest.raises(StoreCorruptedError, match="belongs to shard 0, not 1"):
            ShardCoordinator.resume(layout.root)
