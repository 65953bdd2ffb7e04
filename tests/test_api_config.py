"""Config round-trips and store-URI parsing."""

import json

import pytest

from repro.api import BetweennessConfig, BetweennessSession, resume_session
from repro.api.config import EXECUTORS
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.core.checkpoint import load_checkpoint
from repro.exceptions import ConfigurationError
from repro.storage import (
    ArrayBDStore,
    DiskBDStore,
    InMemoryBDStore,
    create_store,
    parse_store_uri,
)
from repro.graph import Graph
from repro.storage.shard import ShardLayout

from tests.helpers import assert_scores_equal, random_connected_graph


@pytest.fixture
def small_graph():
    return random_connected_graph(16, 0.2, seed=3)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = BetweennessConfig()
        assert config.backend == "dicts"
        assert config.executor == "serial"
        assert config.store == "memory://"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "numpy"),
            ("batch_size", 0),
            ("batch_size", "two"),
            ("executor", "threads"),
            ("workers", 0),
            ("directed", "yes"),
            ("checkpoint_every", 0),
            ("store", "redis://x"),
        ],
    )
    def test_invalid_field_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            BetweennessConfig(**{field: value})

    def test_serial_executor_rejects_multiple_workers(self):
        with pytest.raises(ConfigurationError):
            BetweennessConfig(workers=4)
        for executor in EXECUTORS[1:]:
            store = (
                "shard:///var/data/bc" if executor == "shard" else "memory://"
            )
            config = BetweennessConfig(executor=executor, workers=4, store=store)
            assert config.workers == 4

    def test_mp_configuration_constraints(self):
        assert BetweennessConfig(maintain_predecessors=True).maintain_predecessors
        with pytest.raises(ConfigurationError):
            BetweennessConfig(maintain_predecessors=True, backend="arrays")
        with pytest.raises(ConfigurationError):
            BetweennessConfig(
                maintain_predecessors=True, executor="process", workers=2
            )

    def test_checkpoint_policy_needs_a_path(self):
        with pytest.raises(ConfigurationError):
            BetweennessConfig(checkpoint_every=5)
        config = BetweennessConfig(checkpoint_every=5, checkpoint_path="ck.bin")
        assert config.checkpoint_every == 5

    def test_checkpoint_policy_is_serial_only(self):
        """A periodic policy under a parallel executor would fail mid-stream
        (checkpoint() is serial-only), so it is rejected up front."""
        with pytest.raises(ConfigurationError):
            BetweennessConfig(
                executor="process", workers=2,
                checkpoint_every=1, checkpoint_path="ck.bin",
            )

    def test_parallel_store_uri_must_be_pathless(self):
        with pytest.raises(ConfigurationError):
            BetweennessConfig(
                executor="process", workers=2, store="disk:///tmp/bd.bin"
            )
        assert BetweennessConfig(executor="process", workers=2, store="disk://")

    def test_seed_store_path_is_process_only(self):
        with pytest.raises(ConfigurationError):
            BetweennessConfig(seed_store_path="bd.bin")
        config = BetweennessConfig(
            executor="process", workers=2, seed_store_path="bd.bin"
        )
        assert config.seed_store_path == "bd.bin"


class TestConfigSerialization:
    def test_dict_round_trip(self):
        configs = [
            BetweennessConfig(
                backend="arrays",
                directed=True,
                batch_size=8,
                store="disk:///tmp/bd.bin",
                checkpoint_path="/tmp/ck.bin",
                checkpoint_every=2,
            ),
            BetweennessConfig(
                executor="process",
                workers=3,
                store="disk://",
                seed_store_path="/tmp/seed.bin",
            ),
        ]
        for config in configs:
            assert BetweennessConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = BetweennessConfig(backend="arrays", batch_size=4)
        text = config.to_json()
        assert json.loads(text)["backend"] == "arrays"
        assert BetweennessConfig.from_json(text) == config

    def test_file_round_trip(self, tmp_path):
        config = BetweennessConfig(store="arrays://", batch_size=2)
        path = config.save(tmp_path / "run.json")
        assert BetweennessConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        payload = BetweennessConfig().to_dict()
        payload["bach_size"] = 3
        with pytest.raises(ConfigurationError, match="bach_size"):
            BetweennessConfig.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            BetweennessConfig.from_json("{not json")

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BetweennessConfig.load(tmp_path / "absent.json")

    def test_replace_revalidates(self):
        config = BetweennessConfig()
        with pytest.raises(ConfigurationError):
            config.replace(batch_size=-1)

    def test_for_graph_matches_orientation(self):
        directed = Graph(directed=True)
        assert BetweennessConfig.for_graph(directed).directed is True


class TestShardConfig:
    """The `shard` executor's config surface: URI pairing and round-trips."""

    URI = "shard:///var/data/bc?shards=4&checkpoint_every=8"

    def test_shard_uri_round_trips_through_json(self):
        config = BetweennessConfig(
            executor="shard", workers=4, store=self.URI, backend="arrays"
        )
        assert BetweennessConfig.from_json(config.to_json()) == config
        assert BetweennessConfig.from_dict(config.to_dict()) == config

    def test_shard_config_file_round_trip(self, tmp_path):
        config = BetweennessConfig(executor="shard", workers=4, store=self.URI)
        path = config.save(tmp_path / "shard.json")
        assert BetweennessConfig.load(path) == config

    def test_shard_executor_needs_a_shard_uri(self):
        with pytest.raises(ConfigurationError, match="shard"):
            BetweennessConfig(executor="shard", workers=4, store="memory://")

    def test_shard_uri_needs_the_shard_executor(self):
        with pytest.raises(ConfigurationError, match="shard executor"):
            BetweennessConfig(executor="process", workers=4, store=self.URI)
        with pytest.raises(ConfigurationError, match="shard executor"):
            BetweennessConfig(store="shard:///var/data/bc")

    def test_workers_must_agree_with_the_shards_param(self):
        with pytest.raises(ConfigurationError, match="shards=4"):
            BetweennessConfig(executor="shard", workers=3, store=self.URI)
        config = BetweennessConfig(executor="shard", workers=1, store=self.URI)
        assert config.workers == 1  # URI's shards=4 is authoritative

    def test_checkpoint_path_is_refused_under_shard(self):
        """Sharded checkpoints live in the shard root, one per shard; a
        single sidecar path has no meaning there."""
        with pytest.raises(ConfigurationError, match="shard"):
            BetweennessConfig(
                executor="shard", workers=4, store=self.URI,
                checkpoint_path="/tmp/ck.bin",
            )

    def test_checkpoint_every_lives_in_the_uri_under_shard(self):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            BetweennessConfig(
                executor="shard", workers=4, store=self.URI, checkpoint_every=8
            )


class TestRecvTimeoutConfig:
    """The per-reply worker timeout surfaced as a first-class config field."""

    @pytest.mark.parametrize("value", [0, -1, -0.5, 0.0, True, "fast"])
    def test_non_positive_or_non_numeric_rejected(self, value):
        with pytest.raises(ConfigurationError, match="recv_timeout"):
            BetweennessConfig(
                executor="process", workers=2, recv_timeout=value
            )

    def test_only_for_process_and_shard(self):
        with pytest.raises(ConfigurationError, match="recv_timeout"):
            BetweennessConfig(recv_timeout=5.0)
        assert BetweennessConfig(
            executor="process", workers=2, recv_timeout=5.0
        ).recv_timeout == 5.0
        assert BetweennessConfig(
            executor="shard", workers=2, store="shard:///var/bc?shards=2",
            recv_timeout=0.25,
        ).recv_timeout == 0.25

    def test_round_trips(self):
        config = BetweennessConfig(
            executor="process", workers=2, recv_timeout=1.5
        )
        assert BetweennessConfig.from_dict(config.to_dict()) == config
        assert BetweennessConfig.from_json(config.to_json()) == config


class TestRetiredExecutor:
    """The in-process MapReduce simulation is gone: a config naming it is
    refused with a pointer to the worker runtime, never run as something
    else."""

    RETIRED = dict(BetweennessConfig().to_dict(), executor="mapreduce", workers=3)

    def test_constructor_refuses_it(self):
        with pytest.raises(ConfigurationError, match='executor="process"'):
            BetweennessConfig(executor="mapreduce", workers=3)

    def test_config_payloads_naming_it_are_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match='executor="process"'):
            BetweennessConfig.from_dict(self.RETIRED)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self.RETIRED))
        with pytest.raises(ConfigurationError, match='executor="process"'):
            BetweennessConfig.load(path)

    def test_a_sidecar_naming_it_is_refused_at_resume(self, small_graph, tmp_path):
        IncrementalBetweenness(small_graph).checkpoint(
            tmp_path / "ck.bin", config=self.RETIRED
        )
        with pytest.raises(ConfigurationError, match='executor="process"'):
            resume_session(tmp_path / "ck.bin")


class TestOneDataPlane:
    """The worker runtime has one way across its boundary, so there is
    nothing to choose; the key earlier releases wrote to choose a data plane
    is an unknown field (``repro migrate`` drops it from the configs
    embedded in sidecars and manifests)."""

    @pytest.mark.parametrize("value", [True, False])
    def test_shared_memory_key_is_an_unknown_field(self, value):
        payload = dict(
            BetweennessConfig(executor="process", workers=2).to_dict(),
            shared_memory=value,
        )
        with pytest.raises(ConfigurationError, match="unknown config fields"):
            BetweennessConfig.from_dict(payload)

    def test_constructor_takes_no_shared_memory(self):
        with pytest.raises(TypeError):
            BetweennessConfig(shared_memory=True)

    @pytest.mark.parametrize("value", ["1", "true"])
    def test_shard_uri_accepts_shm_true(self, value):
        store = f"shard:///var/bc?shards=2&shm={value}"
        config = BetweennessConfig(executor="shard", workers=2, store=store)
        assert BetweennessConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("value", ["0", "false", "no"])
    def test_shard_uri_accepts_and_ignores_shm_false(self, value):
        """``shm`` selects nothing: any boolean resolves to the same layout."""
        store = f"shard:///var/bc?shards=2&shm={value}"
        config = BetweennessConfig(executor="shard", workers=2, store=store)
        assert BetweennessConfig.from_json(config.to_json()) == config
        assert ShardLayout.from_uri(store) == ShardLayout.from_uri(
            "shard:///var/bc?shards=2&shm=1"
        )

    def test_shard_uri_refuses_non_boolean_shm(self):
        with pytest.raises(ConfigurationError, match="not a boolean"):
            BetweennessConfig(
                executor="shard", workers=2, store="shard:///var/bc?shm=maybe"
            )

    def test_arrays_uri_takes_no_shm(self):
        with pytest.raises(ConfigurationError, match="unknown query parameter"):
            parse_store_uri("arrays://?shm=1")


class TestStoreURIs:
    def test_valid_uris_parse(self):
        assert parse_store_uri("memory://").scheme == "memory"
        assert parse_store_uri("arrays://").scheme == "arrays"
        parsed = parse_store_uri("disk:///tmp/bd.bin?mmap=true&capacity=64")
        assert parsed.scheme == "disk"
        assert parsed.path == "/tmp/bd.bin"
        assert parsed.params == {"mmap": "true", "capacity": "64"}
        assert parse_store_uri("disk:relative/bd.bin").path == "relative/bd.bin"

    @pytest.mark.parametrize(
        "uri",
        [
            "",
            "   ",
            "bogus://",                      # unknown scheme
            "no-scheme-at-all",
            "memory:///some/path",           # path on a path-less scheme
            "memory://?mmap=true",           # unknown param for the scheme
            "disk:///x?wibble=1",            # unknown param
            "disk://host/path",              # host component
            "disk:///x#frag",                # fragment
            "disk:///x?mmap=1&mmap=0",       # duplicate param
            "disk:///x?mmap",                # malformed query
        ],
    )
    def test_bad_uris_rejected(self, uri):
        with pytest.raises(ConfigurationError):
            parse_store_uri(uri)

    def test_bad_param_values_rejected(self, small_graph):
        vertices = small_graph.vertex_list()
        with pytest.raises(ConfigurationError):
            create_store("disk://?mmap=maybe", vertices)
        with pytest.raises(ConfigurationError):
            create_store("disk://?capacity=lots", vertices)

    def test_memory_uri_matches_backend(self, small_graph):
        vertices = small_graph.vertex_list()
        assert isinstance(create_store("memory://", vertices), InMemoryBDStore)
        arrays = create_store("memory://", vertices, backend="arrays")
        assert isinstance(arrays, ArrayBDStore)

    def test_arrays_uri_for_both_backends(self, small_graph):
        vertices = small_graph.vertex_list()
        for backend in ("dicts", "arrays"):
            store = create_store("arrays://", vertices, backend=backend)
            assert isinstance(store, ArrayBDStore)

    def test_disk_uri_honours_params(self, small_graph, tmp_path):
        vertices = small_graph.vertex_list()
        path = tmp_path / "bd.bin"
        store = create_store(f"disk:{path}?mmap=true&capacity=64", vertices)
        try:
            assert isinstance(store, DiskBDStore)
            assert store.capacity == 64
            assert str(store.path) == str(path)
        finally:
            store.close()

    @pytest.mark.parametrize("value", ["false", "0", "no"])
    def test_disk_uri_refuses_buffered_mode(self, small_graph, tmp_path, value):
        # There is one disk access path; asking for another fails loudly
        # and before the file is created.
        path = tmp_path / "bd.bin"
        with pytest.raises(ConfigurationError, match="memory-mapped"):
            create_store(f"disk:{path}?mmap={value}", small_graph.vertex_list())
        assert not path.exists()

    def test_str_round_trips_through_parse(self):
        for uri in (
            "memory://",
            "arrays://",
            "disk://",
            "disk:///abs/bd.bin",
            "disk:rel/bd.bin",
            "disk:///abs/bd.bin?mmap=true&capacity=64",
        ):
            parsed = parse_store_uri(uri)
            assert parse_store_uri(str(parsed)) == parsed


class TestCheckpointEmbeddedConfig:
    def test_resume_needs_nothing_but_the_path(self, small_graph, tmp_path):
        config = BetweennessConfig(
            backend="arrays",
            store=f"disk:{tmp_path / 'bd.bin'}",
            batch_size=4,
            checkpoint_path=str(tmp_path / "ck.bin"),
        )
        with BetweennessSession(small_graph, config) as session:
            session.apply(EdgeUpdate.addition(0, 100))
            session.checkpoint()
            expected = session.vertex_betweenness()

        resumed = resume_session(tmp_path / "ck.bin")
        try:
            assert resumed.config == config
            assert resumed.vertex_betweenness() == expected
        finally:
            resumed.close()

    def test_sidecar_carries_the_config_dict(self, small_graph, tmp_path):
        config = BetweennessConfig(batch_size=3)
        with BetweennessSession(small_graph, config) as session:
            session.checkpoint(tmp_path / "ck.bin")
        ckpt = load_checkpoint(tmp_path / "ck.bin")
        assert ckpt.config == config.to_dict()

    def test_resume_overrides_replace_config_fields(self, small_graph, tmp_path):
        config = BetweennessConfig(checkpoint_path=str(tmp_path / "ck.bin"))
        with BetweennessSession(small_graph, config) as session:
            session.checkpoint()
            expected = session.vertex_betweenness()
        resumed = resume_session(tmp_path / "ck.bin", backend="arrays")
        try:
            assert resumed.config.backend == "arrays"
            assert resumed.vertex_betweenness() == expected
        finally:
            resumed.close()

    def test_pre_config_sidecar_still_resumes(self, small_graph, tmp_path):
        framework = IncrementalBetweenness(small_graph)
        framework.checkpoint(tmp_path / "old.bin")  # no config embedded
        session = resume_session(tmp_path / "old.bin")
        try:
            assert session.config == BetweennessConfig()
            assert_scores_equal(
                session.vertex_betweenness(), framework.vertex_betweenness(), 0.0
            )
        finally:
            session.close()
