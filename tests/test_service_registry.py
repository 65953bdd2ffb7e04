"""Transport-neutral service core: payload validation, server-owned paths,
the event bridge, the single-writer worker and restart recovery.

No sockets anywhere in this file — the registry is driven directly, which
is exactly why the service core is split from its HTTP transport.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.algorithms import brandes_betweenness
from repro.api import open_session
from repro.core import EdgeUpdate
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.graph import Graph
from repro.service import (
    ClientStream,
    EventBridge,
    ServiceSettings,
    SessionClosed,
    SessionExists,
    SessionNotFound,
    SessionRegistry,
    SessionUnavailable,
    UpdateRejected,
    ValidationFailed,
    encode_event,
)
from repro.service.registry import parse_graph_payload, parse_updates_payload


def run(coro):
    return asyncio.run(coro)


def settings_for(tmp_path, **overrides):
    return ServiceSettings(root=tmp_path / "svc", **overrides)


PATH_GRAPH = {"edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}


async def _started(tmp_path, **overrides):
    registry = SessionRegistry(settings_for(tmp_path, **overrides))
    await registry.startup()
    return registry


class TestGraphPayload:
    def test_round_trip(self):
        graph = parse_graph_payload(
            {"edges": [[0, 1], ["a", "b"]], "vertices": [9], "directed": True}
        )
        assert graph.directed
        assert graph.num_vertices == 5  # 0,1,a,b + isolated 9
        assert graph.has_edge("a", "b")

    @pytest.mark.parametrize(
        "payload, needle",
        [
            ([1, 2], "must be an object"),
            ({"edges": "nope"}, "list of [u, v] pairs"),
            ({"edges": [[0]]}, "edges[0]"),
            ({"edges": [[0, 1.5]]}, "strings or integers"),
            ({"edges": [[0, 0]]}, "edges[0]"),  # self loop → GraphError
            ({"edges": [], "directed": "yes"}, "boolean"),
            ({"nodes": []}, "unknown graph fields"),
            ({"vertices": [True]}, "strings or integers"),
        ],
    )
    def test_rejections(self, payload, needle):
        with pytest.raises(ValidationFailed) as excinfo:
            parse_graph_payload(payload)
        assert needle in str(excinfo.value)


class TestUpdatesPayload:
    def test_both_shapes_decode(self):
        updates = parse_updates_payload(
            {"updates": [["add", 0, 5], {"kind": "remove", "u": "x", "v": "y"}]}
        )
        assert [u.is_addition for u in updates] == [True, False]
        assert (updates[1].u, updates[1].v) == ("x", "y")

    @pytest.mark.parametrize(
        "payload, needle",
        [
            ("nope", "JSON object"),
            ({}, "missing required field 'updates'"),
            ({"updates": []}, "at least one update"),
            ({"updates": [["add", 0]]}, "updates[0]"),
            ({"updates": [["toggle", 0, 1]]}, "'add' or 'remove'"),
            ({"updates": [{"kind": "add", "u": 0}]}, "strings or integers"),
        ],
    )
    def test_rejections(self, payload, needle):
        with pytest.raises(ValidationFailed) as excinfo:
            parse_updates_payload(payload)
        assert needle in str(excinfo.value)


class TestEffectiveConfig:
    """Clients post store *schemes*; the registry owns every path."""

    def _effective(self, tmp_path, config, directed=False):
        registry = SessionRegistry(settings_for(tmp_path))
        graph = Graph(directed=directed)
        graph.add_edge(0, 1)
        directory = registry.settings.sessions_root / "s"
        every = registry.settings.default_checkpoint_every
        return registry._effective_config(config, graph, directory, every), directory

    def test_serial_default_gets_a_checkpoint_path(self, tmp_path):
        config, directory = self._effective(tmp_path, {})
        assert config.executor == "serial"
        assert config.checkpoint_path == str(directory / "checkpoint.bin")
        assert config.checkpoint_every == 1  # the session owns the cadence

    def test_disk_scheme_rewritten_under_session_dir(self, tmp_path):
        config, directory = self._effective(
            tmp_path, {"store": "disk://?mmap=1", "backend": "arrays"}
        )
        assert config.store == f"disk://{directory / 'store.bin'}?mmap=1"

    def test_shard_scheme_rewritten_with_cadence(self, tmp_path):
        config, directory = self._effective(
            tmp_path,
            {"store": "shard://?shards=3", "executor": "shard"},
        )
        assert config.store.startswith(f"shard://{directory / 'shards'}?")
        assert "shards=3" in config.store
        assert "checkpoint_every=1" in config.store  # service default cadence

    @pytest.mark.parametrize(
        "config, needle",
        [
            ({"store": "disk:///etc/passwd"}, "must not name a path"),
            ({"store": "shard:///tmp/x?shards=2"}, "must not name a path"),
            ({"store": "ftp://"}, "not servable"),
            ({"store": 7}, "URI string"),
            ({"executor": "process"}, "'serial' or 'shard'"),
            ({"executor": "mapreduce"}, "'serial' or 'shard'"),
            ({"checkpoint_path": "/tmp/x"}, "server-owned"),
            ({"checkpoint_every": 5}, "server-owned"),
            ({"seed_store_path": "/tmp/x"}, "server-owned"),
            ({"backend": "quantum"}, "backend"),
            ({"directed": True}, "contradicts"),
        ],
    )
    def test_rejections(self, tmp_path, config, needle):
        with pytest.raises(ValidationFailed) as excinfo:
            self._effective(tmp_path, config)
        assert needle in str(excinfo.value)


class TestClientStream:
    def test_drop_oldest_and_lagged_marker(self):
        async def scenario():
            stream = ClientStream(asyncio.get_running_loop(), maxsize=3)
            for i in range(7):  # 4 overflowed
                stream.push({"type": "n", "i": i})
            stream.close()
            return [frame async for frame in stream.frames()]

        frames = run(scenario())
        assert frames[0] == {"type": "lagged", "dropped": 4}
        assert [f["i"] for f in frames[1:]] == [4, 5, 6]  # newest survive

    def test_keepalive_yields_none(self):
        async def scenario():
            stream = ClientStream(asyncio.get_running_loop(), maxsize=4)
            it = stream.frames(keepalive=0.01)
            first = await it.__anext__()
            stream.push({"type": "n"})
            second = await it.__anext__()
            stream.close()
            return first, second

        first, second = run(scenario())
        assert first is None
        assert second == {"type": "n"}

    def test_push_after_close_is_dropped(self):
        async def scenario():
            stream = ClientStream(asyncio.get_running_loop(), maxsize=4)
            stream.close()
            stream.push({"type": "n"})
            return [frame async for frame in stream.frames()]

        assert run(scenario()) == []


class TestEventBridge:
    def test_fan_out_and_broken_client_isolation(self, path5):
        async def scenario():
            loop = asyncio.get_running_loop()
            bridge = EventBridge(loop, queue_size=16)
            healthy = bridge.open_stream()
            broken = bridge.open_stream()
            broken.push = lambda frame: (_ for _ in ()).throw(RuntimeError())
            session = open_session(path5)
            session.subscribe(bridge)
            session.apply_batch([EdgeUpdate.addition(0, 2)])
            session.close()
            assert bridge.num_clients == 2
            bridge.close()
            assert bridge.num_clients == 0
            return [frame async for frame in healthy.frames()]

        frames = run(scenario())
        assert [f["type"] for f in frames] == ["batch_applied", "session_closed"]
        batch = frames[0]
        assert batch["num_updates"] == 1
        assert batch["updates"] == [{"kind": "add", "u": 0, "v": 2}]

    def test_encode_event_skips_unknown(self):
        assert encode_event(object()) is None


class TestRegistryLifecycle:
    def test_create_read_update_delete(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            info = await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            assert info["name"] == "demo"
            assert info["executor"] == "serial"
            assert [s["name"] for s in registry.list_sessions()] == ["demo"]
            managed = registry.get("demo")
            summary = await managed.apply_updates(
                parse_updates_payload({"updates": [["add", 0, 4]]})
            )
            assert summary["applied"] == 1
            assert summary["batch_index"] == 0
            assert summary["durable"] is True  # cadence 1
            scores = await managed.read(managed.session.vertex_betweenness)
            oracle = Graph()
            for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
                oracle.add_edge(u, v)
            assert scores == brandes_betweenness(oracle).vertex_scores
            result = await registry.delete("demo")
            assert result == {"name": "demo", "closed": True, "purged": False}
            with pytest.raises(SessionClosed):
                registry.get("demo")
            await registry.close_all()

        run(scenario())

    def test_duplicate_names_and_limits(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path, max_sessions=2)
            payload = {"name": "a", "graph": PATH_GRAPH, "config": {}}
            await registry.create(payload)
            with pytest.raises(SessionExists):
                await registry.create(payload)
            await registry.create({**payload, "name": "b"})
            with pytest.raises(ValidationFailed) as excinfo:
                await registry.create({**payload, "name": "c"})
            assert "session limit" in str(excinfo.value)
            await registry.close_all()

        run(scenario())

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "a/b", "../up", "x" * 65, "sp ace"]
    )
    def test_bad_names_rejected(self, tmp_path, name):
        async def scenario():
            registry = await _started(tmp_path)
            with pytest.raises(ValidationFailed):
                await registry.create(
                    {"name": name, "graph": PATH_GRAPH, "config": {}}
                )
            await registry.close_all()

        run(scenario())

    def test_unknown_session_field_rejected(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            with pytest.raises(ValidationFailed) as excinfo:
                await registry.create(
                    {"name": "a", "graph": PATH_GRAPH, "configs": {}}
                )
            assert "unknown session fields" in str(excinfo.value)
            await registry.close_all()

        run(scenario())

    def test_update_rejection_is_atomic(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            managed = registry.get("demo")
            before = await managed.read(managed.session.vertex_betweenness)
            batch = parse_updates_payload(
                {"updates": [["add", 0, 4], ["add", 0, 1]]}  # second is dup
            )
            with pytest.raises(UpdateRejected):
                await managed.apply_updates(batch)
            after = await managed.read(managed.session.vertex_betweenness)
            assert after == before  # nothing from the bad batch landed
            assert managed.session.batches_applied == 0
            await registry.close_all()

        run(scenario())

    def test_purge_frees_the_name(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            payload = {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            await registry.create(payload)
            await registry.delete("demo", purge=True)
            with pytest.raises(SessionNotFound):
                registry.get("demo")
            await registry.create(payload)  # name reusable
            await registry.close_all()

        run(scenario())


class TestSingleWriter:
    def test_concurrent_posts_apply_in_fifo_event_order(self, tmp_path):
        """20 concurrent POST coroutines; the event stream must show gap-free
        batch indexes and the final scores must equal the oracle replay in
        that recorded order — i.e. batches never interleaved."""

        async def scenario():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            managed = registry.get("demo")
            stream = managed.bridge.open_stream()
            batches = [[("add", i % 5, 100 + i)] for i in range(20)]
            summaries = await asyncio.gather(
                *(
                    managed.apply_updates(
                        parse_updates_payload(
                            {"updates": [list(u) for u in batch]}
                        )
                    )
                    for batch in batches
                )
            )
            assert sorted(s["batch_index"] for s in summaries) == list(
                range(20)
            )
            scores = await managed.read(managed.session.vertex_betweenness)
            frames = []
            stream.close()
            async for frame in stream.frames():
                if frame["type"] == "batch_applied":
                    frames.append(frame)
            await registry.close_all()
            return frames, scores

        frames, scores = run(scenario())
        assert [f["batch_index"] for f in frames] == list(range(20))
        # Oracle: replay in the exact order the worker recorded.
        oracle = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            oracle.add_edge(u, v)
        session = open_session(oracle)
        for frame in frames:
            session.apply_batch(
                [
                    EdgeUpdate.addition(u["u"], u["v"])
                    for u in frame["updates"]
                ]
            )
        assert scores == session.vertex_betweenness()
        session.close()

    def test_apply_after_close_raises_session_closed(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            managed = registry.get("demo")
            await registry.delete("demo")
            with pytest.raises(SessionClosed):
                await managed.apply_updates(
                    parse_updates_payload({"updates": [["add", 0, 4]]})
                )
            await registry.close_all()

        run(scenario())


class TestDurability:
    """``durable`` answers whether a checkpoint already covers the batch:
    at cadence 3 exactly batches 3 and 6 are, and the event stream shows
    ``checkpoint_written`` after those two, then the close's tail one."""

    SESSIONS = {
        "serial": {"config": {"store": "disk://"}, "checkpoint_every": 3},
        "shard": {
            "config": {
                "executor": "shard",
                "store": "shard://?shards=2&checkpoint_every=3",
            }
        },
        "shard-top-level-cadence": {
            "config": {"executor": "shard", "store": "shard://"},
            "checkpoint_every": 3,
        },
    }

    @pytest.mark.parametrize("kind", sorted(SESSIONS))
    def test_durable_exactly_on_the_cadence(self, tmp_path, kind):
        async def scenario():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, **self.SESSIONS[kind]}
            )
            managed = registry.get("demo")
            stream = managed.bridge.open_stream()
            durable = []
            for index in range(7):
                summary = await managed.apply_updates(
                    parse_updates_payload(
                        {"updates": [["add", index % 5, 100 + index]]}
                    )
                )
                durable.append(summary["durable"])
            await registry.close_all()
            return durable, [frame["type"] async for frame in stream.frames()]

        durable, frames = run(scenario())
        assert durable == [False, False, True, False, False, True, False]
        cadence = ["batch_applied"] * 3 + ["checkpoint_written"]
        tail = ["batch_applied", "checkpoint_written", "session_closed"]
        assert frames == cadence * 2 + tail


class TestShardCadence:
    """A shard session's cadence is the top-level ``checkpoint_every`` when
    its URI names none; a URI naming a different one is refused."""

    def _create(self, tmp_path, store, **payload):
        async def scenario():
            registry = await _started(tmp_path)
            try:
                await registry.create(
                    {
                        "name": "demo",
                        "graph": PATH_GRAPH,
                        "config": {"executor": "shard", "store": store},
                        **payload,
                    }
                )
                return registry.get("demo").session.config.store
            finally:
                await registry.close_all()

        return run(scenario())

    def test_top_level_cadence_fills_the_uri(self, tmp_path):
        store = self._create(tmp_path, "shard://", checkpoint_every=3)
        assert "checkpoint_every=3" in store.split("?")[1].split("&")

    def test_service_default_fills_a_silent_payload(self, tmp_path):
        store = self._create(tmp_path, "shard://")
        assert "checkpoint_every=1" in store.split("?")[1].split("&")

    def test_the_same_cadence_twice_is_accepted(self, tmp_path):
        store = self._create(
            tmp_path, "shard://?checkpoint_every=3", checkpoint_every=3
        )
        assert store.split("?")[1].split("&").count("checkpoint_every=3") == 1

    def test_a_contradicting_uri_cadence_is_refused(self, tmp_path):
        with pytest.raises(ValidationFailed, match="name the cadence once"):
            self._create(
                tmp_path, "shard://?checkpoint_every=2", checkpoint_every=3
            )
        assert not (tmp_path / "svc" / "sessions" / "demo").exists()


class TestRestartRecovery:
    def test_a_serial_session_counts_on_across_a_restart(self, tmp_path):
        """The resumed session answers ``batch_index`` 5 after five batches,
        not 0 again."""

        async def first_life():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "checkpoint_every": 2}
            )
            managed = registry.get("demo")
            indices = [
                (
                    await managed.apply_updates(
                        parse_updates_payload({"updates": [["add", 0, 10 + i]]})
                    )
                )["batch_index"]
                for i in range(5)
            ]
            await registry.close_all()
            return indices

        async def second_life():
            registry = await _started(tmp_path)
            managed = registry.get("demo")
            applied = managed.session.batches_applied
            summary = await managed.apply_updates(
                parse_updates_payload({"updates": [["add", 0, 20]]})
            )
            await registry.close_all()
            return applied, summary["batch_index"], summary["durable"]

        assert run(first_life()) == [0, 1, 2, 3, 4]
        assert run(second_life()) == (5, 5, False)

    def test_restore_after_orderly_shutdown(self, tmp_path):
        async def first_life():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            managed = registry.get("demo")
            await managed.apply_updates(
                parse_updates_payload({"updates": [["add", 0, 4]]})
            )
            scores = await managed.read(managed.session.vertex_betweenness)
            await registry.close_all()
            return scores

        async def second_life():
            registry = await _started(tmp_path)
            managed = registry.get("demo")
            scores = await managed.read(managed.session.vertex_betweenness)
            info = managed.info()
            await registry.close_all()
            return scores, info

        before = run(first_life())
        after, info = run(second_life())
        assert after == before  # bit-identical across restart
        assert info["num_edges"] == 5

    def test_a_sidecar_without_a_cadence_restores_with_service_json_s(
        self, tmp_path
    ):
        """Sidecars written while the service kept the cadence itself embed
        no ``checkpoint_every``; the one in ``service.json`` restores it."""

        async def first_life():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "checkpoint_every": 3}
            )
            await registry.close_all()

        async def second_life():
            registry = await _started(tmp_path)
            managed = registry.get("demo")
            durable = [
                (
                    await managed.apply_updates(
                        parse_updates_payload({"updates": [["add", 0, 10 + i]]})
                    )
                )["durable"]
                for i in range(3)
            ]
            await registry.close_all()
            return managed.session.config.checkpoint_every, durable

        run(first_life())
        sidecar = tmp_path / "svc" / "sessions" / "demo" / "checkpoint.bin"
        ckpt = load_checkpoint(sidecar)
        save_checkpoint(
            sidecar,
            dataclasses.replace(
                ckpt, config={**ckpt.config, "checkpoint_every": None}
            ),
        )
        assert run(second_life()) == (3, [False, False, True])

    def test_create_and_restore_on_a_debug_loop(self, tmp_path):
        """asyncio's debug mode refuses loop calls from other threads: the
        registry must build sessions off the loop but adopt them on it."""

        async def first_life():
            registry = await _started(tmp_path)
            await registry.create({"name": "demo", "graph": PATH_GRAPH})
            managed = registry.get("demo")
            await managed.apply_updates(
                parse_updates_payload({"updates": [["add", 0, 4]]})
            )
            scores = await managed.read(managed.session.vertex_betweenness)
            await registry.close_all()
            return scores

        async def second_life():
            registry = await _started(tmp_path)
            managed = registry.get("demo")
            scores = await managed.read(managed.session.vertex_betweenness)
            await registry.close_all()
            return scores

        before = asyncio.run(first_life(), debug=True)
        assert asyncio.run(second_life(), debug=True) == before

    def test_closed_sessions_stay_closed_after_restart(self, tmp_path):
        async def first_life():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            await registry.delete("demo")
            await registry.close_all()

        async def second_life():
            registry = await _started(tmp_path)
            assert registry.list_sessions() == []
            with pytest.raises(SessionClosed):
                registry.get("demo")
            await registry.close_all()

        run(first_life())
        run(second_life())

    def test_corrupt_checkpoint_surfaces_as_unavailable(self, tmp_path):
        async def first_life():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            await registry.close_all()
            return registry.settings.sessions_root / "demo" / "checkpoint.bin"

        checkpoint = run(first_life())
        checkpoint.write_bytes(b"garbage")

        async def second_life():
            registry = await _started(tmp_path)
            assert "demo" in registry.restore_failures
            with pytest.raises(SessionUnavailable) as excinfo:
                registry.get("demo")
            assert "demo" in str(excinfo.value)
            # A purge clears the wreck and frees the name.
            await registry.delete("demo", purge=True)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            await registry.close_all()

        run(second_life())

    def test_unreadable_meta_is_reported_not_fatal(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            wreck = registry.settings.sessions_root / "wreck"
            wreck.mkdir(parents=True)
            (wreck / "service.json").write_text("{not json", encoding="utf-8")
            await registry.close_all()
            fresh = SessionRegistry(registry.settings)
            report = await fresh.startup()
            assert "wreck" in report["failed"]
            await fresh.close_all()

        run(scenario())

    def test_meta_written_atomically(self, tmp_path):
        async def scenario():
            registry = await _started(tmp_path)
            await registry.create(
                {"name": "demo", "graph": PATH_GRAPH, "config": {}}
            )
            meta_path = (
                registry.settings.sessions_root / "demo" / "service.json"
            )
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            assert meta["resume_target"] == "checkpoint.bin"
            assert meta["closed"] is False
            assert not meta_path.with_suffix(".json.tmp").exists()
            await registry.close_all()

        run(scenario())
