"""Named, checkpoint-backed session management over a service root.

The registry is the service's transport-neutral core: everything the HTTP
layer can do — create a session from a posted config, apply update
batches, read scores, stream events, delete — is a registry method, so the
HTTP server in :mod:`repro.service.server` is a thin adapter over it (and
unit tests need no sockets at all).

Durability model
----------------
Each named session owns one directory under ``<root>/sessions/<name>/``::

    <root>/sessions/<name>/
        service.json        # name, executor, resume target, closed marker
        checkpoint.bin      # serial sessions: the sidecar (config embedded)
        store.bin           # serial sessions on disk:// stores
        shards/             # shard sessions: the whole shard:// ensemble

Clients never name server filesystem paths: a posted config may choose a
store *scheme* (``memory://``, ``arrays://``, ``disk://``, ``shard://``)
and knobs like ``?capacity=`` or ``shards=``, but the registry owns where the
bytes live.  Each session gets a ``checkpoint_every`` cadence (in its config,
or its ``shard://`` URI) and checkpoints itself at birth, on the cadence and
at close; an update is ``durable`` once a checkpoint covers it, and a
SIGKILLed server restores every session from its last checkpoint.

Write path
----------
All updates for a session flow through one **single-writer asyncio
worker**: concurrent POSTs enqueue jobs and await their futures, the
worker applies them strictly in arrival order on an executor thread, so
``apply_batch`` calls never interleave and the event stream stays gap
free.  Reads run inline on the event loop, under every executor: they
read the snapshot the writer published at the last batch boundary (a
shard session's is the fold of its workers' last replies) and never
block.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.config import BetweennessConfig
from repro.api.session import BetweennessSession, resume_session
from repro.core.updates import EdgeUpdate, UpdateKind
from repro.exceptions import (
    ConfigurationError,
    GraphError,
    ReproError,
    UpdateError,
)
from repro.graph.graph import Graph
from repro.service.errors import (
    SessionClosed,
    SessionExists,
    SessionNotFound,
    SessionUnavailable,
    ServiceError,
    UpdateRejected,
    ValidationFailed,
)
from repro.service.events import DEFAULT_QUEUE_SIZE, EventBridge

PathLike = Union[str, Path]

#: Session names are path components; keep them boring and traversal-proof.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Store schemes the service accepts (anything durable or RAM-resident the
#: checkpoint sidecar can embed).  The registry rewrites paths, so these
#: are *schemes*, never locations.
_ALLOWED_SCHEMES = ("memory", "arrays", "disk", "shard")

_SERVICE_FILE = "service.json"
_CHECKPOINT_FILE = "checkpoint.bin"
_STORE_FILE = "store.bin"
_SHARD_DIR = "shards"


@dataclass(frozen=True)
class ServiceSettings:
    """Everything the serving layer needs, in one frozen object.

    ``api_key=None`` disables authentication (development mode); when set,
    every request except ``/healthz`` must present it via ``X-API-Key`` or
    ``Authorization: Bearer``.
    """

    root: Path
    api_key: Optional[str] = None
    max_sessions: int = 64
    event_queue_size: int = DEFAULT_QUEUE_SIZE
    default_checkpoint_every: int = 1
    keepalive_seconds: float = 15.0

    def __post_init__(self) -> None:
        # Resolved so the store/checkpoint URIs derived from it are always
        # absolute (a relative path inside a URI would re-anchor on cwd).
        object.__setattr__(self, "root", Path(self.root).resolve())
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.event_queue_size < 1:
            raise ConfigurationError(
                f"event_queue_size must be >= 1, got {self.event_queue_size}"
            )
        if self.default_checkpoint_every < 1:
            raise ConfigurationError(
                "default_checkpoint_every must be >= 1, got "
                f"{self.default_checkpoint_every}"
            )

    @property
    def sessions_root(self) -> Path:
        return self.root / "sessions"


def _require(payload: Dict[str, Any], key: str, kind, what: str):
    if key not in payload:
        raise ValidationFailed(f"{what} is missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValidationFailed(
            f"field {key!r} of {what} must be "
            f"{getattr(kind, '__name__', kind)}, got {type(value).__name__}"
        )
    return value


def _vertex_value(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationFailed(
            f"{where}: vertices must be JSON strings or integers, got "
            f"{type(value).__name__}"
        )
    return value


def parse_graph_payload(payload: Any) -> Graph:
    """Build the initial :class:`Graph` from the posted ``graph`` object.

    Shape: ``{"edges": [[u, v], ...], "vertices": [...], "directed": bool}``
    — ``vertices`` (isolated vertices allowed) and ``directed`` optional.
    """
    if not isinstance(payload, dict):
        raise ValidationFailed(
            f"'graph' must be an object, got {type(payload).__name__}"
        )
    directed = payload.get("directed", False)
    if not isinstance(directed, bool):
        raise ValidationFailed("'graph.directed' must be a boolean")
    unknown = set(payload) - {"edges", "vertices", "directed"}
    if unknown:
        raise ValidationFailed(
            f"unknown graph fields {sorted(unknown)}; expected edges, "
            "vertices, directed"
        )
    graph = Graph(directed=directed)
    for vertex in payload.get("vertices", ()):
        graph.add_vertex(_vertex_value(vertex, "'graph.vertices'"))
    edges = payload.get("edges", ())
    if not isinstance(edges, list):
        raise ValidationFailed("'graph.edges' must be a list of [u, v] pairs")
    for index, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValidationFailed(
                f"'graph.edges[{index}]' must be a [u, v] pair, got {edge!r}"
            )
        u = _vertex_value(edge[0], f"'graph.edges[{index}]'")
        v = _vertex_value(edge[1], f"'graph.edges[{index}]'")
        try:
            graph.add_edge(u, v)
        except GraphError as exc:
            raise ValidationFailed(f"'graph.edges[{index}]': {exc}") from exc
    return graph


def parse_updates_payload(payload: Any) -> List[EdgeUpdate]:
    """Decode the posted batch: ``{"updates": [{"kind","u","v"}|["add",u,v]]}``."""
    if not isinstance(payload, dict):
        raise ValidationFailed("request body must be a JSON object")
    raw = _require(payload, "updates", list, "update batch")
    if not raw:
        raise ValidationFailed("'updates' must hold at least one update")
    updates: List[EdgeUpdate] = []
    for index, item in enumerate(raw):
        where = f"'updates[{index}]'"
        if isinstance(item, dict):
            kind = item.get("kind")
            u, v = item.get("u"), item.get("v")
        elif isinstance(item, (list, tuple)) and len(item) == 3:
            kind, u, v = item
        else:
            raise ValidationFailed(
                f"{where} must be {{'kind','u','v'}} or ['add'|'remove', u, v]"
            )
        if kind not in ("add", "remove"):
            raise ValidationFailed(
                f"{where}: kind must be 'add' or 'remove', got {kind!r}"
            )
        u = _vertex_value(u, where)
        v = _vertex_value(v, where)
        updates.append(
            EdgeUpdate(
                UpdateKind.ADDITION if kind == "add" else UpdateKind.REMOVAL,
                u,
                v,
            )
        )
    return updates


class ManagedSession:
    """One named session: engine + single-writer worker + event bridge."""

    def __init__(
        self,
        name: str,
        directory: Path,
        session: BetweennessSession,
        bridge: EventBridge,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.name = name
        self.directory = directory
        self.session = session
        self.bridge = bridge
        self._loop = loop
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closing = False
        self._close_task: Optional[asyncio.Task] = None
        self._worker = loop.create_task(self._run(), name=f"session-{name}")

    # -- single-writer worker ------------------------------------------ #
    async def _run(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                break
            updates, future = job
            if future.cancelled():
                continue
            try:
                summary = await self._loop.run_in_executor(
                    None, self._apply_sync, updates
                )
            except ReproError as exc:
                if not future.cancelled():
                    future.set_exception(self._map_update_error(exc))
            except Exception as exc:  # noqa: BLE001 - surfaced to the caller
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(summary)

    def _apply_sync(self, updates: List[EdgeUpdate]) -> Dict[str, Any]:
        """Runs on an executor thread; the only writer of this session."""
        session = self.session
        session.apply_batch(updates)
        batches = session.batches_applied
        return {
            "applied": len(updates),
            "batch_index": batches - 1,
            "num_vertices": session.graph.num_vertices,
            "num_edges": session.graph.num_edges,
            "durable": session.durable_batches == batches,
        }

    @staticmethod
    def _map_update_error(exc: ReproError) -> Exception:
        if isinstance(exc, ServiceError):
            return exc
        if isinstance(exc, (UpdateError, GraphError)):
            return UpdateRejected(str(exc))
        return exc

    # -- async surface (event-loop side) ------------------------------- #
    async def apply_updates(self, updates: List[EdgeUpdate]) -> Dict[str, Any]:
        """Enqueue one batch and await its application (FIFO, never
        interleaved with other batches of this session)."""
        if self._closing:
            raise SessionClosed(self.name)
        future: asyncio.Future = self._loop.create_future()
        await self._queue.put((updates, future))
        return await future

    async def read(self, fn, *args, **kwargs):
        """Run a session read inline: a lock-free read of the snapshot
        published at the last batch boundary."""
        if self._closing:
            raise SessionClosed(self.name)
        return fn(*args, **kwargs)

    async def close(self) -> None:
        """Drain the worker, close the session (tail checkpoint included).

        Idempotent; concurrent callers all await the one shutdown task, so
        the final checkpoint can never race the engine teardown.
        """
        if self._close_task is None:
            self._closing = True
            await self._queue.put(None)
            self._close_task = self._loop.create_task(self._do_close())
        await asyncio.shield(self._close_task)

    async def _do_close(self) -> None:
        await self._worker
        try:
            await self._loop.run_in_executor(None, self.session.close)
        finally:
            self.bridge.close()

    # -- info ----------------------------------------------------------- #
    def info(self) -> Dict[str, Any]:
        graph = self.session.graph
        return {
            "name": self.name,
            "executor": self.session.config.executor,
            "backend": self.session.config.backend,
            "store": self.session.config.store,
            "directed": self.session.config.directed,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "batches_applied": self.session.batches_applied,
            "subscribers": self.bridge.num_clients,
        }


class SessionRegistry:
    """All live sessions of one service process, rooted in one directory."""

    def __init__(self, settings: ServiceSettings) -> None:
        self.settings = settings
        self._sessions: Dict[str, ManagedSession] = {}
        self._restore_failures: Dict[str, str] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._create_lock: Optional[asyncio.Lock] = None

    # -- lifecycle ------------------------------------------------------ #
    async def startup(self) -> Dict[str, Any]:
        """Bind to the running loop and restore every session on disk."""
        self._loop = asyncio.get_running_loop()
        self._create_lock = asyncio.Lock()
        self.settings.sessions_root.mkdir(parents=True, exist_ok=True)
        restored, skipped = [], []
        for directory in sorted(self.settings.sessions_root.iterdir()):
            meta_path = directory / _SERVICE_FILE
            if not meta_path.is_file():
                continue
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                self._restore_failures[directory.name] = (
                    f"unreadable {_SERVICE_FILE}: {exc}"
                )
                continue
            name = meta.get("name", directory.name)
            if meta.get("closed"):
                skipped.append(name)
                continue
            target = directory / meta.get("resume_target", _CHECKPOINT_FILE)
            try:
                # service.json's cadence also restores the sidecars of roots
                # whose embedded config predates the session-owned cadence.
                session = await self._run_blocking(
                    resume_session,
                    target,
                    checkpoint_every=meta.get("checkpoint_every"),
                )
            except ReproError as exc:
                # A mangled session must not take the whole service down;
                # it is reported per name (requests for it get a 409).
                self._restore_failures[name] = str(exc)
                continue
            self._adopt(name, directory, session)
            restored.append(name)
        return {
            "restored": restored,
            "closed_on_disk": skipped,
            "failed": dict(self._restore_failures),
        }

    def _adopt(
        self, name: str, directory: Path, session: BetweennessSession
    ) -> ManagedSession:
        """Wrap a built session; runs on the loop thread, because the
        managed session starts its writer task there."""
        assert self._loop is not None
        bridge = EventBridge(self._loop, self.settings.event_queue_size)
        session.subscribe(bridge)
        managed = ManagedSession(name, directory, session, bridge, self._loop)
        self._sessions[name] = managed
        return managed

    async def close_all(self) -> None:
        """Shut every session down (tail checkpoints included)."""
        sessions = list(self._sessions.values())
        self._sessions.clear()
        for managed in sessions:
            await managed.close()

    # -- create / delete ------------------------------------------------ #
    async def create(self, payload: Any) -> Dict[str, Any]:
        """Create a named session from a posted JSON payload.

        Shape::

            {"name": "social",
             "graph": {"edges": [[u, v], ...], "directed": false},
             "config": {...BetweennessConfig fields, paths server-owned...},
             "checkpoint_every": 1}
        """
        if self._loop is None:
            raise ServiceError("registry not started")
        if not isinstance(payload, dict):
            raise ValidationFailed("request body must be a JSON object")
        name = _require(payload, "name", str, "session payload")
        if not _NAME_RE.match(name):
            raise ValidationFailed(
                f"session name {name!r} is invalid (letters, digits, '.', "
                "'_', '-'; at most 64 characters; must not start with a "
                "punctuation character)"
            )
        unknown = set(payload) - {"name", "graph", "config", "checkpoint_every"}
        if unknown:
            raise ValidationFailed(
                f"unknown session fields {sorted(unknown)}; expected name, "
                "graph, config, checkpoint_every"
            )
        graph = parse_graph_payload(payload.get("graph", {}))
        checkpoint_every = payload.get(
            "checkpoint_every", self.settings.default_checkpoint_every
        )
        if not isinstance(checkpoint_every, int) or checkpoint_every < 1:
            raise ValidationFailed(
                f"'checkpoint_every' must be an integer >= 1, got "
                f"{checkpoint_every!r}"
            )

        assert self._create_lock is not None
        async with self._create_lock:
            if name in self._sessions:
                raise SessionExists(name)
            if len(self._sessions) >= self.settings.max_sessions:
                raise ValidationFailed(
                    f"session limit reached ({self.settings.max_sessions}); "
                    "delete one first",
                )
            directory = self.settings.sessions_root / name
            if directory.exists():
                raise SessionExists(name)
            config = self._effective_config(
                payload.get("config", {}),
                graph,
                directory,
                checkpoint_every,
                cadence_posted="checkpoint_every" in payload,
            )
            directory.mkdir(parents=True)
            try:
                # Built (birth checkpoint included) off the loop thread.
                session = await self._run_blocking(
                    BetweennessSession, graph, config
                )
            except ReproError as exc:
                shutil.rmtree(directory, ignore_errors=True)
                if isinstance(exc, ServiceError):
                    raise
                raise ValidationFailed(str(exc)) from exc
            self._write_meta(
                directory,
                {
                    "name": name,
                    "executor": config.executor,
                    "resume_target": (
                        _SHARD_DIR if config.executor == "shard" else _CHECKPOINT_FILE
                    ),
                    "checkpoint_every": config.checkpoint_every,
                    "closed": False,
                    "config": config.to_dict(),
                },
            )
            managed = self._adopt(name, directory, session)
            self._restore_failures.pop(name, None)
            return managed.info()

    def _effective_config(
        self,
        posted: Any,
        graph: Graph,
        directory: Path,
        checkpoint_every: int,
        cadence_posted: bool = False,
    ) -> BetweennessConfig:
        """The posted config with every path rewritten to server-owned
        locations under the session directory, and the cadence set to
        ``checkpoint_every``: a serial session's config field, or a
        ``shard://`` URI's ``checkpoint_every`` when the query names none.
        A query cadence that contradicts a posted (``cadence_posted``)
        top-level field is refused.

        Clients choose schemes and knobs; the server owns the filesystem.
        A posted path (or a client-set ``checkpoint_path`` /
        ``seed_store_path``) is refused rather than silently rewritten.
        """
        if not isinstance(posted, dict):
            raise ValidationFailed("'config' must be an object")
        posted = dict(posted)
        for forbidden in ("checkpoint_path", "checkpoint_every", "seed_store_path"):
            if posted.get(forbidden) is not None:
                raise ValidationFailed(
                    f"'config.{forbidden}' is server-owned; use the "
                    "top-level 'checkpoint_every' field for the cadence"
                )
            posted.pop(forbidden, None)
        executor = posted.get("executor", "serial")
        if executor not in ("serial", "shard"):
            raise ValidationFailed(
                "the service serves durable sessions only: "
                f"'config.executor' must be 'serial' or 'shard', got "
                f"{executor!r}"
            )
        store = posted.get("store", "memory://")
        if not isinstance(store, str):
            raise ValidationFailed("'config.store' must be a store URI string")
        scheme, _, rest = store.partition("://")
        if scheme not in _ALLOWED_SCHEMES:
            raise ValidationFailed(
                f"'config.store' scheme {scheme!r} is not servable; choose "
                f"one of {', '.join(s + '://' for s in _ALLOWED_SCHEMES)}"
            )
        path_part, _, query = rest.partition("?")
        if path_part:
            raise ValidationFailed(
                "'config.store' must not name a path — the service owns "
                f"session storage locations (got {store!r}); post the "
                f"scheme alone, e.g. '{scheme}://"
                + (f"?{query}'" if query else "'")
            )
        if scheme == "disk":
            store = f"disk://{directory / _STORE_FILE}"
            if query:
                store += f"?{query}"
        elif scheme == "shard":
            shard_root = directory / _SHARD_DIR
            params = [] if not query else query.split("&")
            named = dict(p.partition("=")[::2] for p in params)
            if "shards" not in named:
                params.append(f"shards={posted.get('workers', 1)}")
            if "checkpoint_every" not in named:
                params.append(f"checkpoint_every={checkpoint_every}")
            elif cadence_posted and named["checkpoint_every"] != str(
                checkpoint_every
            ):
                raise ValidationFailed(
                    "'config.store' names checkpoint_every="
                    f"{named['checkpoint_every']} but the top-level "
                    f"'checkpoint_every' is {checkpoint_every}; name the "
                    "cadence once"
                )
            store = f"shard://{shard_root}?" + "&".join(params)
        posted["store"] = store
        posted.setdefault("directed", graph.directed)
        if executor == "serial":
            posted["checkpoint_path"] = str(directory / _CHECKPOINT_FILE)
            posted["checkpoint_every"] = checkpoint_every
        try:
            config = BetweennessConfig.from_dict(posted)
        except ConfigurationError as exc:
            raise ValidationFailed(str(exc)) from exc
        if config.directed != graph.directed:
            raise ValidationFailed(
                "'config.directed' contradicts 'graph.directed'"
            )
        return config

    async def delete(self, name: str, purge: bool = False) -> Dict[str, Any]:
        """Close ``name`` (with a final checkpoint); ``purge`` removes its
        directory so the name becomes reusable."""
        managed = self._sessions.pop(name, None)
        if managed is None:
            directory = self.settings.sessions_root / name
            if not directory.exists():
                raise SessionNotFound(name)
            # Closed (or restore-failed) session still on disk.
            if purge:
                await self._run_blocking(
                    shutil.rmtree, directory, ignore_errors=True
                )
                self._restore_failures.pop(name, None)
                return {"name": name, "closed": True, "purged": True}
            raise SessionClosed(name)
        await managed.close()
        if purge:
            await self._run_blocking(
                shutil.rmtree, managed.directory, ignore_errors=True
            )
        else:
            meta_path = managed.directory / _SERVICE_FILE
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                meta = {"name": name}
            meta["closed"] = True
            self._write_meta(managed.directory, meta)
        return {"name": name, "closed": True, "purged": purge}

    # -- access --------------------------------------------------------- #
    def get(self, name: str) -> ManagedSession:
        managed = self._sessions.get(name)
        if managed is not None:
            return managed
        if name in self._restore_failures:
            raise SessionUnavailable(name, self._restore_failures[name])
        if (self.settings.sessions_root / name).exists():
            raise SessionClosed(name)
        raise SessionNotFound(name)

    def list_sessions(self) -> List[Dict[str, Any]]:
        return [
            managed.info()
            for _, managed in sorted(self._sessions.items())
        ]

    @property
    def restore_failures(self) -> Dict[str, str]:
        return dict(self._restore_failures)

    async def _run_blocking(self, fn, *args, **kwargs):
        assert self._loop is not None
        return await self._loop.run_in_executor(
            None, lambda: fn(*args, **kwargs)
        )

    @staticmethod
    def _write_meta(directory: Path, meta: Dict[str, Any]) -> None:
        tmp = directory / (_SERVICE_FILE + ".tmp")
        tmp.write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        tmp.replace(directory / _SERVICE_FILE)
