"""Store URIs and the store factory.

A **store URI** names the backend and its options, so a config file or a
command line selects a :class:`~repro.storage.base.BDStore` declaratively.
The four schemes below are a fixed table (:data:`_SCHEMES`): each maps to
its builder and the query parameters it accepts.

Schemes
-------

``memory://``
    The compute backend's natural in-RAM store: the classic dict-of-records
    :class:`~repro.storage.memory.InMemoryBDStore` under the ``dicts``
    backend, the columnar :class:`~repro.storage.arrays.ArrayBDStore` under
    the ``arrays`` backend (whose kernel repairs records through the column
    protocol the dict store cannot serve).  No query parameters.

``arrays://``
    Always the columnar :class:`~repro.storage.arrays.ArrayBDStore`,
    whichever backend computes over it (it implements the full record
    interface, so the ``dicts`` backend can run on it too).  No query
    parameters.

``disk://`` / ``disk:///abs/path`` / ``disk:relative/path``
    The durable out-of-core :class:`~repro.storage.disk.DiskBDStore`: the
    columnar store's rows (one per owned source) on a mapped file.
    Without a path a temporary file is used and deleted on close; with a
    path the store is created there (an existing non-empty file is refused,
    exactly like constructing :class:`DiskBDStore` directly).  Query
    parameter: ``capacity=<int>`` (pre-allocated vertex slots).  The store
    is always memory-mapped; ``mmap=true`` is still accepted, ``mmap=false``
    is refused.

``shard:///root/dir?shards=8&checkpoint_every=4``
    A fault-tolerant *ensemble* of shard workers plus a coordinator
    manifest under the root directory (see :mod:`repro.storage.shard`).
    The scheme parses and validates here like any other, but it cannot be
    opened as a single store — it is resolved by the shard coordinator
    under ``executor="shard"``, whose every checkpoint round writes one
    sidecar per shard embedding that shard's owned rows.  The workers
    always run the shared-memory data plane; ``shm=true`` is still
    accepted, ``shm=false`` is refused.

Unknown schemes and unknown/invalid query parameters are rejected with
:class:`~repro.exceptions.ConfigurationError` at parse time, so a typo in a
config file fails before any expensive bootstrap runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import ConfigurationError
from repro.storage.arrays import ArrayBDStore
from repro.storage.base import BDStore
from repro.storage.disk import DiskBDStore
from repro.storage.memory import InMemoryBDStore
from repro.types import Vertex, validate_backend


@dataclass(frozen=True)
class StoreURI:
    """A parsed, validated store URI.

    ``scheme`` is always lower-case and one of :data:`_SCHEMES`; ``path`` is the
    file-system path carried by the URI (empty for path-less stores);
    ``params`` are the validated query parameters.
    """

    scheme: str
    path: str = ""
    params: Dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        query = "&".join(f"{key}={value}" for key, value in self.params.items())
        # A relative path must render as "scheme:path" — "scheme://path"
        # would put the first segment into the host component, which
        # parse_store_uri (rightly) refuses; keep str() round-trippable.
        if self.path and not self.path.startswith("/"):
            rendered = f"{self.scheme}:{self.path}"
        else:
            rendered = f"{self.scheme}://{self.path}"
        return f"{rendered}?{query}" if query else rendered


@dataclass(frozen=True)
class StoreRequest:
    """Everything a store factory may need to build a concrete store.

    The framework/session layer fills this in from the graph and the
    resolved configuration; a factory reads what it needs and ignores the
    rest (an in-RAM store has no use for ``uri.path``, a path-less one no
    use for ``capacity``).
    """

    uri: StoreURI
    vertices: Tuple[Vertex, ...]
    sources: Optional[Tuple[Vertex, ...]] = None
    directed: bool = False
    backend: str = "dicts"


def parse_store_uri(uri: str) -> StoreURI:
    """Parse and validate a store URI against the scheme table.

    Raises :class:`~repro.exceptions.ConfigurationError` for an unknown
    scheme, an unknown query parameter, a malformed query string, or a path
    handed to a scheme that takes none.
    """
    if not isinstance(uri, str) or not uri.strip():
        raise ConfigurationError(f"store URI must be a non-empty string, got {uri!r}")
    split = urlsplit(uri)
    scheme = split.scheme.lower()
    if not scheme:
        raise ConfigurationError(
            f"store URI {uri!r} has no scheme; expected one of "
            f"{tuple(sorted(_SCHEMES))} (e.g. 'memory://' or "
            "'disk:///path/to/bd.bin')"
        )
    entry = _SCHEMES.get(scheme)
    if entry is None:
        raise ConfigurationError(
            f"unknown store scheme {scheme!r} in {uri!r}; known schemes: "
            f"{tuple(sorted(_SCHEMES))}"
        )
    if split.fragment:
        raise ConfigurationError(f"store URI {uri!r} must not carry a fragment")
    # ``disk://bd.bin`` would put "bd.bin" into the netloc and silently
    # lose it; require the unambiguous forms instead.
    if split.netloc:
        raise ConfigurationError(
            f"store URI {uri!r} has a host component {split.netloc!r}; use "
            f"'{scheme}:///absolute/path' or '{scheme}:relative/path'"
        )
    path = split.path
    if path and not entry.accepts_path:
        raise ConfigurationError(
            f"store scheme {scheme!r} does not take a path, got {path!r}"
        )
    params: Dict[str, str] = {}
    if split.query:
        try:
            pairs = parse_qsl(
                split.query, keep_blank_values=True, strict_parsing=True
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed query string in store URI {uri!r}: {exc}"
            ) from exc
        for key, value in pairs:
            if key not in entry.allowed_params:
                raise ConfigurationError(
                    f"unknown query parameter {key!r} for store scheme "
                    f"{scheme!r}; allowed: {entry.allowed_params or '(none)'}"
                )
            if key in params:
                raise ConfigurationError(
                    f"duplicate query parameter {key!r} in store URI {uri!r}"
                )
            params[key] = value
    return StoreURI(scheme=scheme, path=path, params=params)


def create_store(
    uri: str,
    vertices: Sequence[Vertex],
    sources: Optional[Sequence[Vertex]] = None,
    directed: bool = False,
    backend: str = "dicts",
) -> BDStore:
    """Resolve a store URI into a live :class:`~repro.storage.base.BDStore`.

    This is the single construction path the session layer (and any other
    caller) uses; the ad-hoc ``store=`` / ``store_path=`` kwargs of the
    engine classes remain as the low-level mechanism the resolved store is
    handed to.
    """
    parsed = parse_store_uri(uri)
    request = StoreRequest(
        uri=parsed,
        vertices=tuple(vertices),
        sources=tuple(sources) if sources is not None else None,
        directed=bool(directed),
        backend=validate_backend(backend),
    )
    return _SCHEMES[parsed.scheme].build(request)


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def _parse_bool(value: str, key: str, uri: StoreURI) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(
        f"query parameter {key}={value!r} of store URI {uri} is not a "
        "boolean (use true/false)"
    )


def _parse_int(value: str, key: str, uri: StoreURI) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"query parameter {key}={value!r} of store URI {uri} is not an "
            "integer"
        ) from None


def _build_array_store(request: StoreRequest) -> ArrayBDStore:
    row_capacity = len(request.sources if request.sources is not None
                       else request.vertices)
    return ArrayBDStore(
        request.vertices,
        row_capacity=row_capacity,
        directed=request.directed,
    )


def _build_memory_store(request: StoreRequest) -> BDStore:
    # The arrays kernel repairs records through the column protocol, which
    # the dict store cannot serve — its natural in-RAM store is the
    # columnar one.
    if request.backend == "arrays":
        return _build_array_store(request)
    return InMemoryBDStore()


def _build_disk_store(request: StoreRequest) -> DiskBDStore:
    params = request.uri.params
    if not _parse_bool(params.get("mmap", "true"), "mmap", request.uri):
        raise ConfigurationError(
            f"store URI {request.uri}: the disk store is always memory-mapped "
            "(there is no buffered mode); drop mmap=false"
        )
    capacity = (
        _parse_int(params["capacity"], "capacity", request.uri)
        if "capacity" in params
        else None
    )
    return DiskBDStore(
        request.vertices,
        path=request.uri.path or None,
        capacity=capacity,
        sources=request.sources,
        directed=request.directed,
    )


def _build_shard_store(request: StoreRequest) -> BDStore:
    # A shard URI denotes an *ensemble* of shard workers plus a coordinator
    # manifest, not one store object — it is resolved by the shard
    # coordinator (executor="shard").
    raise ConfigurationError(
        f"store URI {request.uri} describes a shard ensemble and cannot be "
        "opened as a single store; run it under executor='shard' "
        "(BetweennessConfig(executor='shard', store='shard:///root?shards=N'))"
    )


@dataclass(frozen=True)
class _Scheme:
    build: Callable[[StoreRequest], BDStore]
    allowed_params: Tuple[str, ...] = ()
    accepts_path: bool = True


#: Every store URI scheme: its builder and the query parameters it accepts.
_SCHEMES: Dict[str, _Scheme] = {
    "memory": _Scheme(_build_memory_store, accepts_path=False),
    "arrays": _Scheme(_build_array_store, accepts_path=False),
    "disk": _Scheme(_build_disk_store, allowed_params=("mmap", "capacity")),
    "shard": _Scheme(
        _build_shard_store, allowed_params=("shards", "checkpoint_every", "shm")
    ),
}
