"""On-disk layout and manifest of a sharded betweenness deployment.

A ``shard://`` store URI describes a fault-tolerant *ensemble* of per-shard
checkpoints rather than one store::

    shard:///var/data/bc?shards=8&checkpoint_every=4

The path is the **shard root** directory.  Inside it, each shard owns a
deterministic per-shard directory holding one checkpoint sidecar, and the
coordinator owns one manifest:

.. code-block:: text

    <root>/
        manifest.bin                # coordinator state (atomic replace)
        shard-0000/
            checkpoint.bin          # FrameworkCheckpoint sidecar, records embedded
        shard-0001/
            ...

A checkpoint *round* atomically replaces each shard's ``checkpoint.bin`` —
the same sidecar a serial in-RAM session writes, embedding the shard's
owned records as one column block — so a crash mid-round leaves the
previous round intact.  The manifest is updated (atomically, last) once
every shard committed; its ``batch_cursor`` is the coordinator's authority
on how many batches the ensemble durably applied.  A root of an earlier
format (a manifest or sidecar of an earlier payload version, or a
cursor-stamped store file per shard) is refused on resume with
:class:`~repro.exceptions.StoreVersionError`; ``repro migrate <root>``
rewrites it in this layout once.

This module is pure layout + bookkeeping: paths, the manifest codec, URI
resolution and the deterministic rebalancing rule.  The process machinery
lives in :mod:`repro.parallel.shards`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import ConfigurationError, StoreCorruptedError
from repro.storage.factory import _parse_bool, parse_store_uri
from repro.storage.header import read_sidecar, write_sidecar
from repro.types import Vertex

PathLike = Union[str, Path]

#: Magic number of a shard-coordinator manifest ("Repro Betweenness Shard Manifest").
MANIFEST_MAGIC = b"RBSM"

#: File name of the coordinator manifest inside the shard root.
MANIFEST_FILENAME = "manifest.bin"

#: Checkpoint cadence (batches per round) when the URI does not set one.
DEFAULT_CHECKPOINT_EVERY = 4


def pick_shard(shard_sizes: Sequence[int]) -> int:
    """Deterministic rebalancing rule for stream-born vertices.

    The new vertex goes to the least-loaded shard; ties break to the lowest
    shard id.  Because the inputs are the per-shard source counts — which
    are persisted in the manifest and rebuilt identically by replay — the
    assignment is a pure function of the update history and therefore
    survives coordinator restarts, unlike the driver-local round-robin
    counter it replaces.
    """
    if not shard_sizes:
        raise ConfigurationError("pick_shard needs at least one shard")
    return min(range(len(shard_sizes)), key=lambda i: (shard_sizes[i], i))


@dataclass
class ShardManifest:
    """Coordinator state persisted at every checkpoint round."""

    num_shards: int
    checkpoint_every: int
    backend: str
    directed: bool
    batch_cursor: int
    #: ``[(vertex, shard_id), ...]`` for stream-born vertices, in birth order.
    assignment: List = field(default_factory=list)
    #: Current number of sources owned by each shard (initial partition plus
    #: adoptions) — the state :func:`pick_shard` is a function of.
    shard_sizes: List[int] = field(default_factory=list)
    #: The ``BetweennessConfig.to_dict()`` of the owning session, when one
    #: drove the coordinator; lets ``resume_session`` restore a sharded
    #: session from nothing but the shard root.
    config: Optional[Dict] = None

    def assignment_map(self) -> Dict[Vertex, int]:
        """The stream-born assignment as a dict (vertex → shard id)."""
        return {vertex: shard for vertex, shard in self.assignment}


@dataclass(frozen=True)
class ShardLayout:
    """Resolved description of a shard ensemble's disk layout."""

    root: Path
    num_shards: int
    checkpoint_every: int

    @classmethod
    def from_uri(cls, uri: str, workers: Optional[int] = None) -> "ShardLayout":
        """Resolve a ``shard://`` URI (cross-validated against ``workers``).

        The ``shards`` query parameter is authoritative when present; a
        ``workers`` count other than 1 must agree with it.  Without the
        parameter the shard count is ``workers`` (default 1).  ``shm`` is
        accepted with any boolean value and selects nothing: workers share
        nothing with the driver but their pipes.
        """
        parsed = parse_store_uri(uri)
        if parsed.scheme != "shard":
            raise ConfigurationError(
                f"not a shard:// URI: {uri!r} (scheme {parsed.scheme!r})"
            )
        if not parsed.path:
            raise ConfigurationError(
                f"shard URI {uri!r} must name a root directory, e.g. "
                "'shard:///var/data/bc?shards=8'"
            )
        num_shards = _positive_int(parsed.params, "shards", uri, default=None)
        if num_shards is None:
            num_shards = workers if workers is not None else 1
        elif workers not in (None, 1, num_shards):
            raise ConfigurationError(
                f"shard URI {uri!r} declares shards={num_shards} but the "
                f"configuration asks for workers={workers}; drop one or make "
                "them agree"
            )
        checkpoint_every = _positive_int(
            parsed.params, "checkpoint_every", uri, default=DEFAULT_CHECKPOINT_EVERY
        )
        # ``shm`` selects nothing; it is parsed only so that a value that is
        # not a boolean is still refused.
        _parse_bool(parsed.params.get("shm", "true"), "shm", parsed)
        return cls(
            root=Path(parsed.path),
            num_shards=num_shards,
            checkpoint_every=checkpoint_every,
        )

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_FILENAME

    def shard_dir(self, shard_id: int) -> Path:
        return self.root / f"shard-{shard_id:04d}"

    def checkpoint_path(self, shard_id: int) -> Path:
        return self.shard_dir(shard_id) / "checkpoint.bin"

    @staticmethod
    def is_shard_root(path: PathLike) -> bool:
        """Whether ``path`` is (or directly names) a shard-root manifest."""
        path = Path(path)
        if path.is_dir():
            return (path / MANIFEST_FILENAME).exists()
        return path.name == MANIFEST_FILENAME and path.exists()

    # ------------------------------------------------------------------ #
    # Manifest IO
    # ------------------------------------------------------------------ #
    def write_manifest(self, manifest: ShardManifest) -> Path:
        """Atomically persist the coordinator state (see :func:`write_sidecar`)."""
        payload = {
            "num_shards": manifest.num_shards,
            "checkpoint_every": manifest.checkpoint_every,
            "backend": manifest.backend,
            "directed": manifest.directed,
            "batch_cursor": manifest.batch_cursor,
            "assignment": list(manifest.assignment),
            "shard_sizes": list(manifest.shard_sizes),
            "config": manifest.config,
        }
        path = self.manifest_path
        write_sidecar(path, MANIFEST_MAGIC, payload)
        return path

    def read_manifest(self) -> ShardManifest:
        """Load the manifest (CRC-validated) and check it fits this layout."""
        path = self.manifest_path
        manifest = load_manifest(self.root)
        if manifest.num_shards != self.num_shards:
            raise ConfigurationError(
                f"shard root {self.root} holds {manifest.num_shards} shards "
                f"but the layout asked for {self.num_shards}; resharding is "
                "not supported — resume with the original shard count"
            )
        if len(manifest.shard_sizes) != manifest.num_shards:
            raise StoreCorruptedError(
                f"manifest {path} records {len(manifest.shard_sizes)} shard "
                f"sizes for {manifest.num_shards} shards"
            )
        return manifest


def load_manifest(root: PathLike) -> ShardManifest:
    """Load a shard root's manifest without assuming a shard count.

    This is the discovery path of ``ShardCoordinator.resume`` /
    ``resume_session``: the manifest itself is the authority on how many
    shards the ensemble has and how often it checkpoints.
    """
    path = Path(root) / MANIFEST_FILENAME
    if not path.exists():
        raise ConfigurationError(
            f"{root} is not a shard root: no {MANIFEST_FILENAME} "
            "(was the ensemble ever checkpointed?)"
        )
    payload = read_sidecar(path, MANIFEST_MAGIC)
    return ShardManifest(
        num_shards=int(payload["num_shards"]),
        checkpoint_every=int(payload["checkpoint_every"]),
        backend=payload["backend"],
        directed=bool(payload["directed"]),
        batch_cursor=int(payload["batch_cursor"]),
        assignment=list(payload["assignment"]),
        shard_sizes=list(payload["shard_sizes"]),
        config=payload["config"],
    )


def _positive_int(
    params: Dict[str, str], key: str, uri: str, default: Optional[int]
) -> Optional[int]:
    if key not in params:
        return default
    try:
        value = int(params[key])
    except ValueError:
        raise ConfigurationError(
            f"query parameter {key}={params[key]!r} of shard URI {uri!r} is "
            "not an integer"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"query parameter {key}={value} of shard URI {uri!r} must be >= 1"
        )
    return value
