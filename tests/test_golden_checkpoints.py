"""Checkpoints written by an earlier format must resume exactly once
``repro migrate`` has converted them.

``tests/data/golden/`` holds two serial sidecars (``arrays`` and ``dicts``,
records embedded as a ``{source: SourceData}`` snapshot) and a two-shard
root, all written before checkpoints switched to the column payload, plus
the scores each reaches after a fixed 5-update stream.  ``generate.py``
beside them documents how they were made.  Resuming them unconverted is
refused (``tests/test_migrate.py``).
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro import cli
from repro.api import resume_session
from repro.core.checkpoint import load_checkpoint
from repro.storage.shard import load_manifest

GOLDEN = Path(__file__).parent / "data" / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate", GOLDEN / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _generator()
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("serial-arrays.ck", {}),
        ("serial-dicts.ck", {}),
        ("shard-root", {}),
        # The dicts and arrays kernels are bit-identical, so a sidecar
        # resumed on the other backend reaches the same recorded scores.
        ("serial-arrays.ck", {"backend": "dicts"}),
        ("serial-dicts.ck", {"backend": "arrays"}),
    ],
)
def test_golden_artifact_resumes_exactly(tmp_path, name, overrides):
    # Migrating and resuming write (the converted files, shard rounds), so
    # work on a copy — at a different path than the one the artifact was
    # written at.
    source = GOLDEN / name
    target = tmp_path / "moved" / name
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        target.parent.mkdir()
        shutil.copy2(source, target)
    assert cli.main(["migrate", str(target)]) == 0
    session = resume_session(target, **overrides)
    assert generate.finish(session) == EXPECTED[name]


def test_golden_shard_root_is_rewritten_in_the_current_format(tmp_path):
    """A migrated parent-format root holds one sidecar per shard (no stamped
    store) and reaches the recorded scores; its next round keeps that
    layout, and that root resumes to the live session's scores."""
    target = tmp_path / "moved" / "shard-root"
    shutil.copytree(GOLDEN / "shard-root", target)
    assert cli.main(["migrate", str(target)]) == 0
    for shard_dir in sorted(target.glob("shard-*")):
        assert [p.name for p in shard_dir.iterdir()] == ["checkpoint.bin"]
    session = resume_session(target)
    for update in generate.STREAM:
        session.apply_batch([update])
    live = generate.scores_of(session)
    assert live == EXPECTED["shard-root"]
    session.checkpoint()
    for shard_dir in sorted(target.glob("shard-*")):
        assert [p.name for p in shard_dir.iterdir()] == ["checkpoint.bin"]
        assert load_checkpoint(shard_dir / "checkpoint.bin").store_path is None
    session.close()
    again = resume_session(target)
    try:
        assert generate.scores_of(again) == live
    finally:
        again.close()


def test_golden_shard_root_resumes_under_its_own_path(tmp_path):
    """The golden root was written elsewhere; once copied and migrated, the
    resumed session's store URI and the next manifest name the copy."""
    target = tmp_path / "moved" / "shard-root"
    shutil.copytree(GOLDEN / "shard-root", target)
    assert cli.main(["migrate", str(target)]) == 0
    recorded = load_manifest(target).config["store"]
    assert not recorded.startswith(f"shard://{target.resolve()}")
    session = resume_session(target)
    try:
        _, _, query = recorded.partition("?")
        expected = f"shard://{target.resolve()}?{query}"
        assert session.config.store == expected
        session.apply_batch([generate.STREAM[0]])
        session.checkpoint()
        assert load_manifest(target).config["store"] == expected
    finally:
        session.close()
