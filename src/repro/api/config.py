"""Declarative configuration of a betweenness session.

:class:`BetweennessConfig` is the single place every knob of the system
lives: compute backend, graph orientation, batching, execution strategy,
worker count, store URI and checkpoint policy.  It is frozen (safe to share
and to hash into experiment labels), validates itself on construction, and
round-trips losslessly through plain dicts and JSON — which is how it
travels inside config files (``repro --config run.json``) and inside
checkpoints (so :func:`~repro.api.session.resume_session` needs nothing but
the checkpoint path).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.storage.factory import parse_store_uri
from repro.storage.shard import ShardLayout
from repro.types import BACKENDS, validate_backend

PathLike = Union[str, Path]


def _shm_uri_param(uri, store: str) -> Optional[bool]:
    """The URI's ``shm`` query parameter as a bool (``None`` when absent)."""
    value = uri.params.get("shm")
    if value is None:
        return None
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(
        f"query parameter shm={value!r} of store URI {store!r} is not a "
        "boolean (use true/false)"
    )

#: Execution strategies a session can run under.
#:
#: * ``serial`` — one :class:`~repro.core.framework.IncrementalBetweenness`
#:   instance in this process (the MP/MO/DO configurations of the paper);
#: * ``process`` — the measured multiprocessing executor: the shard runtime
#:   (:class:`~repro.parallel.shards.ShardCoordinator`) without a root, one
#:   restricted framework per worker process and no disk state;
#: * ``mapreduce`` — the in-process simulated cluster
#:   (:class:`~repro.parallel.mapreduce.MapReduceBetweenness`);
#: * ``shard`` — the same runtime made fault tolerant by a root
#:   (:class:`~repro.parallel.shards.ShardCoordinator`): per-shard durable
#:   stores and checkpoints under a ``shard://`` root, worker-death
#:   recovery, and disk-only resume.
EXECUTORS: Tuple[str, ...] = ("serial", "process", "mapreduce", "shard")


@dataclass(frozen=True)
class BetweennessConfig:
    """Frozen, serializable description of how to run the system.

    Parameters
    ----------
    backend:
        Compute backend, ``"dicts"`` or ``"arrays"`` (bit-identical scores).
    directed:
        Orientation of the evolving graph.  A session refuses a graph whose
        orientation contradicts its config, exactly like a store refuses a
        graph with the wrong orientation.
    batch_size:
        Updates per source sweep in :meth:`BetweennessSession.stream
        <repro.api.session.BetweennessSession.stream>` (1 = one-at-a-time).
    executor:
        One of :data:`EXECUTORS`.
    workers:
        Worker processes (``process``) or simulated mappers (``mapreduce``).
        Must be 1 under the ``serial`` executor.
    store:
        Store URI resolved through :func:`repro.storage.create_store`
        (``memory://``, ``arrays://``, ``disk:///path?mmap=true``, or any
        third-party registered scheme).  Under the ``process`` and
        ``mapreduce`` executors the scheme selects the *per-worker* store
        kind and must be path-less (each worker owns a private temporary
        store).  The ``shard`` executor instead *requires* a ``shard://``
        URI naming the ensemble root, e.g.
        ``shard:///var/data/bc?shards=8&checkpoint_every=4`` (``shards``
        must agree with ``workers`` when both are given).
    maintain_predecessors:
        Also maintain per-source predecessor lists (the paper's MP
        configuration; dicts backend + serial executor only).
    checkpoint_path:
        Default sidecar path for :meth:`BetweennessSession.checkpoint
        <repro.api.session.BetweennessSession.checkpoint>` and the
        checkpoint policy below.
    checkpoint_every:
        Automatic checkpoint policy: while streaming, write a checkpoint to
        ``checkpoint_path`` every this many batches (``None`` = only on
        demand).
    seed_store_path:
        ``process`` executor only: durable
        :class:`~repro.storage.disk.DiskBDStore` file each worker reopens
        to seed its partition's records, skipping the parallel Brandes
        bootstrap.
    recv_timeout:
        ``process``/``shard`` executors only: cap in seconds on waiting for
        a live worker's reply (worker *death* is detected within ~50ms
        regardless).  Must be positive; ``None`` (default) waits as long as
        the worker stays alive.
    shared_memory:
        Run the zero-copy data plane.  Under ``process``/``shard`` the
        workers attach the initial graph and their seed records from shared
        segments and per-batch dispatch ships ``(offset, length)``
        descriptors into a shared update ring; under ``serial`` the store's
        columns live in (or sweep through) shared segments
        (``arrays://``-style columnar stores and buffered ``disk://``
        stores).  Scores are bit-identical either way.  Equivalent to the
        ``?shm=1`` query parameter on ``arrays://`` / ``shard://`` URIs —
        setting the field to ``True`` while the URI says ``shm=0`` (or vice
        versa) is a contradiction and is refused.

    Examples
    --------
    >>> config = BetweennessConfig(backend="arrays", store="disk:///tmp/bd.bin")
    >>> BetweennessConfig.from_json(config.to_json()) == config
    True
    """

    backend: str = "dicts"
    directed: bool = False
    batch_size: int = 1
    executor: str = "serial"
    workers: int = 1
    store: str = "memory://"
    maintain_predecessors: bool = False
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None
    seed_store_path: Optional[str] = None
    recv_timeout: Optional[float] = None
    shared_memory: bool = False

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        if not isinstance(self.directed, bool):
            raise ConfigurationError(
                f"directed must be a bool, got {self.directed!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be an int >= 1, got {self.batch_size!r}"
            )
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigurationError(
                f"workers must be an int >= 1, got {self.workers!r}"
            )
        if self.executor == "serial" and self.workers != 1:
            raise ConfigurationError(
                f"the serial executor runs exactly one worker, got "
                f"workers={self.workers} (choose executor='process' or "
                "'mapreduce' to scale out)"
            )
        uri = parse_store_uri(self.store)  # rejects bad scheme/query early
        if self.executor == "shard" and uri.scheme != "shard":
            raise ConfigurationError(
                f"the shard executor needs a shard:// store URI naming the "
                f"shard root, got {self.store!r} (e.g. "
                "'shard:///var/data/bc?shards=8&checkpoint_every=4')"
            )
        if uri.scheme == "shard" and self.executor != "shard":
            raise ConfigurationError(
                f"store URI {self.store!r} describes a shard ensemble, which "
                f"only the shard executor can run (got executor="
                f"{self.executor!r})"
            )
        if self.executor == "shard":
            # Resolves the root/shards/checkpoint_every parameters and
            # cross-validates the shard count against ``workers``.
            ShardLayout.from_uri(self.store, workers=self.workers)
        elif self.executor != "serial" and uri.path:
            raise ConfigurationError(
                f"executor {self.executor!r} uses per-worker stores, so the "
                f"store URI must not name a path (got {self.store!r}); use "
                "seed_store_path to seed workers from a durable store file"
            )
        if self.maintain_predecessors:
            if self.backend != "dicts":
                raise ConfigurationError(
                    "maintain_predecessors (the MP configuration) is only "
                    "supported by the dicts backend"
                )
            if self.executor != "serial":
                raise ConfigurationError(
                    "maintain_predecessors is only supported by the serial "
                    "executor"
                )
        if self.checkpoint_every is not None and (
            not isinstance(self.checkpoint_every, int) or self.checkpoint_every < 1
        ):
            raise ConfigurationError(
                f"checkpoint_every must be an int >= 1 or None, got "
                f"{self.checkpoint_every!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        if self.checkpoint_every is not None and self.executor != "serial":
            # checkpoint() itself is serial-only (a parallel session's state
            # lives in per-worker stores), so a periodic policy under a
            # parallel executor would fail mid-stream after real work.  The
            # shard executor checkpoints too, but its cadence lives in the
            # URI (checkpoint_every=N) because it is a property of the
            # durable ensemble, not of one streaming call.
            raise ConfigurationError(
                "checkpoint_every requires the serial executor; under the "
                "shard executor set the cadence in the store URI "
                "('shard:///root?checkpoint_every=N') instead"
            )
        if self.checkpoint_path is not None and self.executor == "shard":
            raise ConfigurationError(
                "the shard executor keeps its checkpoints inside the shard "
                "root named by the store URI; checkpoint_path must be None"
            )
        if self.seed_store_path is not None and self.executor != "process":
            raise ConfigurationError(
                "seed_store_path only applies to the process executor"
            )
        if self.recv_timeout is not None:
            if (
                isinstance(self.recv_timeout, bool)
                or not isinstance(self.recv_timeout, (int, float))
                or self.recv_timeout <= 0
            ):
                raise ConfigurationError(
                    f"recv_timeout must be a positive number of seconds or "
                    f"None, got {self.recv_timeout!r}"
                )
            if self.executor not in ("process", "shard"):
                raise ConfigurationError(
                    "recv_timeout only applies to the process and shard "
                    f"executors (got executor={self.executor!r})"
                )
        if not isinstance(self.shared_memory, bool):
            raise ConfigurationError(
                f"shared_memory must be a bool, got {self.shared_memory!r}"
            )
        shm_param = _shm_uri_param(uri, self.store)
        if self.shared_memory and shm_param is False:
            raise ConfigurationError(
                f"shared_memory=True contradicts the store URI "
                f"{self.store!r} (which says shm=0); drop one of the two"
            )
        if self.shared_memory or shm_param:
            if self.executor == "mapreduce":
                raise ConfigurationError(
                    "shared_memory does not apply to the in-process "
                    "mapreduce executor (its simulated mappers already share "
                    "this process's memory)"
                )
            if self.executor == "serial":
                if uri.scheme == "memory" and self.backend != "arrays":
                    raise ConfigurationError(
                        "shared_memory under the serial executor needs a "
                        "columnar store; memory:// resolves to the "
                        "dict-of-records store under the dicts backend — use "
                        "store='arrays://' or backend='arrays'"
                    )
                if uri.scheme == "disk" and uri.params.get(
                    "mmap", "true"
                ).lower() in ("true", "1", "yes"):
                    raise ConfigurationError(
                        "shared_memory under the serial executor only "
                        "applies to the buffered disk store (the mmap path "
                        "already repairs in place); add mmap=false to the "
                        "disk:// URI"
                    )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    @property
    def effective_shared_memory(self) -> bool:
        """Whether the zero-copy data plane is on (the field or ``?shm=1``)."""
        uri = parse_store_uri(self.store)
        return self.shared_memory or bool(_shm_uri_param(uri, self.store))

    def replace(self, **changes: Any) -> "BetweennessConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def for_graph(cls, graph, **overrides: Any) -> "BetweennessConfig":
        """A config whose orientation matches ``graph``, plus ``overrides``."""
        overrides.setdefault("directed", graph.directed)
        return cls(**overrides)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-compatible values only)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BetweennessConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys are rejected.

        Rejecting unknown keys (instead of ignoring them) catches typos in
        hand-written config files — ``bach_size`` silently meaning "default
        batch size" is exactly the class of bug the declarative surface
        exists to remove.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"config payload must be a dict, got {type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown config fields {sorted(unknown)}; known fields: "
                f"{sorted(known)}"
            )
        return cls(**payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form (the config-file format of ``repro --config``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BetweennessConfig":
        """Rebuild from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: PathLike) -> Path:
        """Write the JSON form to ``path`` (pretty-printed)."""
        path = Path(path)
        path.write_text(self.to_json(indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "BetweennessConfig":
        """Read a config file written by :meth:`save` (or by hand)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_json(text)
