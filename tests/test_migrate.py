"""``repro migrate``: the one converter of earlier-format artefacts, and the
refusal of every open and resume path to read such an artefact unconverted.

The artefacts are the goldens of ``tests/data/golden/`` (``generate.py``
beside them says how they were written): version-1 and version-2 store
files, two serial sidecars of the snapshot payload and a two-shard root of
the stamped-store layout.  What they reach once migrated is asserted by
``tests/test_disk_format.py::TestLegacyFiles`` and
``tests/test_golden_checkpoints.py``.
"""

import hashlib
import json
import multiprocessing
import pickle
import re
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro import cli
from repro.api import BetweennessConfig, BetweennessSession, resume_session
from repro.core import IncrementalBetweenness
from repro.core.checkpoint import CHECKPOINT_MAGIC, load_checkpoint
from repro.exceptions import ConfigurationError, StoreVersionError
from repro.graph import Graph
from repro.parallel import ShardCoordinator
from repro.storage import DiskBDStore
from repro.storage.codec import record_size
from repro.storage.header import HEADER_SIZE, read_sidecar
from repro.storage.migrate import migrate

from tests.helpers import assert_scores_equal
from tests.test_golden_checkpoints import generate

GOLDEN = Path(__file__).parent / "data" / "golden"
ARTEFACTS = [
    "disk-v1.bin", "disk-v2.bin", "serial-arrays.ck", "serial-dicts.ck", "shard-root"
]
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


def _copy(name, tmp_path):
    """A copy of a golden at a path other than the one it was written at."""
    target = tmp_path / "moved" / name
    if (GOLDEN / name).is_dir():
        shutil.copytree(GOLDEN / name, target)
    else:
        target.parent.mkdir(parents=True)
        shutil.copy2(GOLDEN / name, target)
    return target


def _tree(path):
    """Every file under ``path``'s directory, by relative name, with its hash."""
    root = path.parent
    return {
        str(file.relative_to(root)): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(root.rglob("*"))
        if file.is_file()
    }


def _golden_graph():
    """The goldens' graph after their prefix (vertex 12 born)."""
    return Graph.from_edges(generate.EDGES + [(1, 7), (3, 12), (12, 8)])


def _seed_two_workers(path):
    with ShardCoordinator(_golden_graph(), num_workers=2, source_store_path=path):
        pass


#: Every way an artefact is opened or resumed, by the artefact's kind.
OPENERS = {
    "bin": [DiskBDStore.open, _seed_two_workers],
    "ck": [resume_session],
    "shard-root": [resume_session, ShardCoordinator.resume],
}


class TestUnmigratedIsRefused:
    @pytest.mark.parametrize("name", ARTEFACTS)
    def test_every_open_path_refuses_and_writes_nothing(self, tmp_path, name):
        path = _copy(name, tmp_path)
        before = _tree(path)
        for open_ in OPENERS[name.rsplit(".", 1)[-1]]:
            with pytest.raises(
                StoreVersionError, match=re.escape(f"repro migrate {path}")
            ):
                open_(path)
        assert _tree(path) == before
        assert multiprocessing.active_children() == []


class TestMigrate:
    @pytest.mark.parametrize("name", ARTEFACTS)
    def test_a_second_run_changes_no_byte(self, tmp_path, name, capsys):
        path = _copy(name, tmp_path)
        assert cli.main(["migrate", str(path)]) == 0
        assert "rewrote" in capsys.readouterr().out
        converted = _tree(path)
        assert cli.main(["migrate", str(path)]) == 0
        assert "already in the current format" in capsys.readouterr().out
        assert _tree(path) == converted

    def test_migrated_root_holds_one_sidecar_per_shard(self, tmp_path):
        root = _copy("shard-root", tmp_path)
        migrate(root / "manifest.bin")  # the manifest names its root
        assert sorted(_tree(root)) == [
            "shard-root/manifest.bin",
            "shard-root/shard-0000/checkpoint.bin",
            "shard-root/shard-0001/checkpoint.bin",
        ]
        for shard_id in range(2):
            sidecar = load_checkpoint(root / f"shard-{shard_id:04d}" / "checkpoint.bin")
            assert sidecar.store_path is None and sidecar.columns is not None
            assert sidecar.shard_meta == {"shard_id": shard_id, "num_shards": 2}
            assert sidecar.batch_cursor == 4

    def test_stamped_store_past_its_sidecar_is_refused(self, tmp_path):
        """A stamped store touched behind its sidecar's back (generation
        moved on) must not be folded into the sidecar: the root is refused
        and left as it was."""
        root = _copy("shard-root", tmp_path)
        stamped = root / "shard-0000" / "store-00000004.bin"
        raw = bytearray(stamped.read_bytes())
        capacity, meta_size = struct.unpack_from("<QQ", raw, 8)
        start = HEADER_SIZE + capacity * record_size(capacity)  # version 1
        meta = pickle.loads(raw[start : start + meta_size])
        meta["generation"] += 1
        block = pickle.dumps(meta, protocol=4)
        struct.pack_into("<QI", raw, 16, len(block), zlib.crc32(block))
        stamped.write_bytes(bytes(raw[:start]) + block)
        before = _tree(root)
        with pytest.raises(ConfigurationError, match="generation"):
            migrate(root)
        assert _tree(root) == before
        with pytest.raises(SystemExit, match="generation"):
            cli.main(["migrate", str(root)])
        assert _tree(root) == before

    def test_concurrent_runs_write_the_same_bytes(self, tmp_path):
        """No lock: each run writes its own sibling, and the file ends as
        one run alone leaves it, with no sibling behind."""
        alone = _copy("disk-v1.bin", tmp_path / "alone")
        migrate(alone)
        path = _copy("disk-v1.bin", tmp_path / "raced")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)

        def run():
            barrier.wait()
            migrate(path)

        processes = [context.Process(target=run) for _ in range(2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert [process.exitcode for process in processes] == [0, 0]
        assert path.read_bytes() == alone.read_bytes()
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_current_artefacts_are_left_byte_identical(self, tmp_path):
        graph = _golden_graph()
        store = DiskBDStore(graph.vertex_list(), path=tmp_path / "bd.bin")
        IncrementalBetweenness(graph, store=store).checkpoint(tmp_path / "ck.bin")
        store.close()
        config = BetweennessConfig(
            executor="shard", workers=2, store=f"shard://{tmp_path / 'root'}?shards=2"
        )
        BetweennessSession(graph, config).close()
        for path in (tmp_path / "bd.bin", tmp_path / "ck.bin", tmp_path / "root"):
            before = _tree(path)
            assert migrate(path) == []
            assert _tree(path) == before

    def test_a_sidecar_without_adjacency_gets_the_edge_list_graph(self, tmp_path):
        """Sidecars older than the order-exact adjacency are converted with
        the graph their edge list rebuilds, which holds the same scores."""
        path = _copy("serial-arrays.ck", tmp_path)
        payload = read_sidecar(path, CHECKPOINT_MAGIC, version=1)
        del payload["adjacency"]
        body = pickle.dumps(payload, protocol=4)
        path.write_bytes(
            struct.pack("<4sHHQI", CHECKPOINT_MAGIC, 1, 0, len(body), zlib.crc32(body))
            + body
        )
        migrate(path)
        session = resume_session(path)
        try:
            graph = session.framework.graph
            assert sorted(graph.vertex_list()) == sorted(payload["vertices"])
            assert sorted(graph.edge_list()) == sorted(payload["edges"])
            assert session.vertex_betweenness() == payload["vertex_scores"]
            for update in generate.STREAM:
                session.apply_batch([update])
            expected = EXPECTED["serial-arrays.ck"]
            assert_scores_equal(
                session.vertex_betweenness(), {v: s for v, s in expected["vertex"]}
            )
        finally:
            session.close()

    def test_a_file_that_is_no_artefact_is_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a store")
        with pytest.raises(SystemExit, match="neither a store file"):
            cli.main(["migrate", str(path)])
        assert path.read_text() == "not a store"

