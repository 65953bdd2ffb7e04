"""Write the golden checkpoint artifacts that ``tests/test_golden_checkpoints.py``
resumes.

The artifacts pin the earlier on-disk formats ``repro migrate`` converts:

* ``serial-arrays.ck`` — a serial ``arrays``-backend sidecar whose records
  are embedded (the session ran on an in-RAM store);
* ``serial-dicts.ck`` — the same for the ``dicts`` backend;
* ``shard-root/`` — a two-shard root (manifest, per-shard sidecars and
  cursor-stamped store files);
* ``expected.json`` — the scores each artifact must reach after
  :data:`STREAM` is applied to it, with floats written by ``repr`` so they
  round-trip exactly;
* ``disk-v1.bin`` + ``disk-v1.json`` — a version-1 ``DiskBDStore`` file
  (one record per vertex slot) restricted to :data:`DISK_SOURCES`, after
  :data:`PREFIX` with the born vertex 12 adopted, and its vertex order,
  source order and records (floats by ``repr``);
* ``disk-v2.bin`` + ``disk-v2.json`` — the same store as a version-2 file
  (interleaved records in rows of owned sources), written by
  :func:`write_disk_store` and renamed.

The committed sidecars and shard root were written by the code of the
commit *before* checkpoints switched to the column payload, and
``disk-v1.*`` by the commit before disk records became rows of owned
sources, ``disk-v2.*`` by the commit before the store file became three
planes; they are what proves that sidecars, shard roots and store files
from those formats are refused when opened and, once ``repro migrate``
converted them, resume exactly.  Re-running this
script with later code writes the current format instead, so regenerate
only on purpose::

    PYTHONPATH=src python tests/data/golden/generate.py --output <dir>
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from repro.api import BetweennessConfig, BetweennessSession, resume_session
from repro.core import EdgeUpdate, IncrementalBetweenness
from repro.graph import Graph
from repro.storage import DiskBDStore

#: A 12-vertex connected graph: a ring with three chords.
EDGES = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (2, 9), (4, 10)]

#: Applied before the checkpoint: additions, a removal and one birth (12).
PREFIX = [
    EdgeUpdate.addition(1, 7),
    EdgeUpdate.removal(5, 6),
    EdgeUpdate.addition(3, 12),
    EdgeUpdate.addition(12, 8),
]

#: The fixed 5-update stream applied after resuming: another birth (13),
#: a remove-then-readd and a removal of a chord.
STREAM = [
    EdgeUpdate.addition(12, 13),
    EdgeUpdate.removal(0, 6),
    EdgeUpdate.addition(13, 5),
    EdgeUpdate.addition(0, 6),
    EdgeUpdate.removal(2, 9),
]

SHARDS = 2

#: The partition the disk-store artifact owns, deliberately not in slot
#: order: a store iterates its sources in slot order whatever it was given.
DISK_SOURCES = [8, 2, 10, 0, 6, 4]

#: The vertex born in :data:`PREFIX`, adopted by the disk-store artifact.
BORN = 12


def build_graph() -> Graph:
    return Graph.from_edges(EDGES)


def serial_config(backend: str) -> BetweennessConfig:
    return BetweennessConfig(backend=backend, store="memory://")


def shard_config(root: Path) -> BetweennessConfig:
    return BetweennessConfig(
        backend="arrays",
        executor="shard",
        workers=SHARDS,
        store=f"shard://{root}?shards={SHARDS}&checkpoint_every=2",
    )


def scores_of(session) -> dict:
    return {
        "vertex": [[v, s] for v, s in sorted(session.vertex_betweenness().items())],
        "edge": [
            [u, v, s] for (u, v), s in sorted(session.edge_betweenness().items())
        ],
    }


def finish(session) -> dict:
    """Apply :data:`STREAM` one update per batch and return the scores."""
    for update in STREAM:
        session.apply_batch([update])
    scores = scores_of(session)
    session.close()
    return scores


def unbroken(config: BetweennessConfig) -> dict:
    with BetweennessSession(build_graph(), config) as session:
        for update in PREFIX:
            session.apply_batch([update])
        for update in STREAM:
            session.apply_batch([update])
        return scores_of(session)


def records_of(store) -> dict:
    """A store's vertex order, source order and records, JSON-ready."""
    records = {}
    for source in store.sources():
        data = store.get(source)
        records[str(source)] = {
            name: [[v, x] for v, x in sorted(getattr(data, name).items())]
            for name in ("distance", "sigma", "delta")
        }
    return {
        "vertices": store.vertex_index.vertices(),
        "sources": list(store.sources()),
        "records": records,
    }


def write_disk_store(output: Path) -> dict:
    """Write ``disk-v1.bin``: a restricted arrays instance on a disk store."""
    path = output / "disk-v1.bin"
    path.unlink(missing_ok=True)
    graph = build_graph()
    store = DiskBDStore(graph.vertex_list(), path=path, sources=DISK_SOURCES)
    ibc = IncrementalBetweenness(
        graph, store=store, sources=DISK_SOURCES, backend="arrays"
    )
    for update in PREFIX:
        born = BORN in (update.u, update.v) and not ibc.graph.has_vertex(BORN)
        ibc.apply_updates([update], adopt=[BORN] if born else None)
    expected = records_of(store)
    store.close()
    return expected


def generate(output: Path) -> None:
    output.mkdir(parents=True, exist_ok=True)
    expected = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        scratch = Path(scratch)
        for backend in ("arrays", "dicts"):
            name = f"serial-{backend}.ck"
            with BetweennessSession(build_graph(), serial_config(backend)) as session:
                for update in PREFIX:
                    session.apply_batch([update])
                session.checkpoint(output / name)
            expected[name] = finish(resume_session(output / name))
            assert expected[name] == unbroken(serial_config(backend)), name

        # The root is written outside ``output`` and copied in, so the
        # absolute store paths older sidecars pin point nowhere once the
        # scratch directory is gone — resuming the copy must not need them.
        work = scratch / "shard-root"
        with BetweennessSession(build_graph(), shard_config(work)) as session:
            for update in PREFIX:
                session.apply_batch([update])
        target = output / "shard-root"
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(work, target)
        expected["shard-root"] = finish(resume_session(work))
        reference = unbroken(shard_config(scratch / "unbroken-root"))
        assert expected["shard-root"] == reference, "shard-root"
    (output / "expected.json").write_text(json.dumps(expected) + "\n")
    disk = write_disk_store(output)
    (output / "disk-v1.json").write_text(json.dumps(disk) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent,
        help="directory to write the artifacts into (default: beside this script)",
    )
    generate(parser.parse_args().output)


if __name__ == "__main__":
    main()
