"""Transport-neutral route handlers and the service's routing table.

The handlers below speak plain data: a :class:`ServiceRequest` in, a
:class:`JSONResult` (or :class:`EventStreamResult` for SSE) out, with
:mod:`repro.service.errors` raised for every deliberate 4xx.  The asyncio
server in :mod:`repro.service.server` routes through :data:`ROUTES`, and
unit tests can exercise the whole API without opening a socket.

Endpoints (see ``docs/service.md`` for the full reference)::

    GET    /healthz                      liveness (no auth)
    GET    /sessions                     list live sessions
    POST   /sessions                     create from {name, graph, config}
    GET    /sessions/{name}              one session's stats
    DELETE /sessions/{name}[?purge=true] checkpoint-on-close (+ purge)
    POST   /sessions/{name}/updates      apply one edge-update batch
    GET    /sessions/{name}/top_k        k most central vertices/edges
    GET    /sessions/{name}/scores       betweenness scores (all or some)
    GET    /sessions/{name}/events       SSE stream of session events
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.errors import AuthenticationFailed, ValidationFailed
from repro.service.events import ClientStream, EventBridge
from repro.service.registry import (
    SessionRegistry,
    parse_updates_payload,
)

#: API version tag served by ``/healthz`` (wire format, not package version).
API_VERSION = "1"


@dataclass(frozen=True)
class ServiceRequest:
    """What a transport hands a handler: the parsed request."""

    method: str
    path: str
    path_params: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)  # lower-cased keys


@dataclass(frozen=True)
class JSONResult:
    """A plain JSON response."""

    status: int
    payload: Any


@dataclass(frozen=True)
class EventStreamResult:
    """An SSE response: the transport pumps ``stream`` until it closes.

    The transport *must* call ``release()`` when the client goes away so
    the bridge drops the queue.
    """

    stream: ClientStream
    bridge: EventBridge
    keepalive: float

    def release(self) -> None:
        self.bridge.discard(self.stream)


@dataclass(frozen=True)
class Route:
    method: str
    #: Path segments; ``{name}``-style segments capture one path component.
    pattern: str
    handler: Callable
    #: ``False`` only for the liveness probe.
    auth: bool = True

    @property
    def segments(self) -> Tuple[str, ...]:
        return tuple(s for s in self.pattern.split("/") if s)


def check_auth(registry: SessionRegistry, request: ServiceRequest) -> None:
    """Enforce the api-key policy for one request (no-op when unset)."""
    expected = registry.settings.api_key
    if expected is None:
        return
    presented = request.headers.get("x-api-key")
    if presented is None:
        authorization = request.headers.get("authorization", "")
        scheme, _, token = authorization.partition(" ")
        if scheme.lower() == "bearer" and token:
            presented = token.strip()
    if presented is None:
        raise AuthenticationFailed(
            "missing API key; send it as 'X-API-Key: <key>' or "
            "'Authorization: Bearer <key>'"
        )
    if not hmac.compare_digest(presented, expected):
        raise AuthenticationFailed("invalid API key")


def _query_int(query: Dict[str, str], key: str, default: int) -> int:
    raw = query.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationFailed(
            f"query parameter {key}={raw!r} is not an integer"
        ) from None


def _query_bool(query: Dict[str, str], key: str, default: bool = False) -> bool:
    raw = query.get(key)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationFailed(
        f"query parameter {key}={raw!r} is not a boolean (use true/false)"
    )


# --------------------------------------------------------------------- #
# Handlers
# --------------------------------------------------------------------- #
async def healthz(registry: SessionRegistry, request: ServiceRequest):
    return JSONResult(
        200,
        {
            "status": "ok",
            "api_version": API_VERSION,
            "sessions": len(registry.list_sessions()),
            "restore_failures": registry.restore_failures,
        },
    )


async def list_sessions(registry: SessionRegistry, request: ServiceRequest):
    return JSONResult(200, {"sessions": registry.list_sessions()})


async def create_session(registry: SessionRegistry, request: ServiceRequest):
    info = await registry.create(request.body)
    return JSONResult(201, info)


async def get_session(registry: SessionRegistry, request: ServiceRequest):
    managed = registry.get(request.path_params["name"])
    return JSONResult(200, managed.info())


async def delete_session(registry: SessionRegistry, request: ServiceRequest):
    purge = _query_bool(request.query, "purge")
    outcome = await registry.delete(request.path_params["name"], purge=purge)
    return JSONResult(200, outcome)


async def post_updates(registry: SessionRegistry, request: ServiceRequest):
    managed = registry.get(request.path_params["name"])
    updates = parse_updates_payload(request.body)
    summary = await managed.apply_updates(updates)
    return JSONResult(200, summary)


async def get_top_k(registry: SessionRegistry, request: ServiceRequest):
    managed = registry.get(request.path_params["name"])
    k = _query_int(request.query, "k", 10)
    if k < 1:
        raise ValidationFailed(f"query parameter k must be >= 1, got {k}")
    edges = _query_bool(request.query, "edges")
    ranking = await managed.read(managed.session.top_k, k, edges=edges)
    top = [
        {"item": list(item) if edges else item, "score": score}
        for item, score in ranking
    ]
    return JSONResult(
        200,
        {
            "k": k,
            "edges": edges,
            "batches_applied": ranking.batches_applied,
            "top": top,
        },
    )


async def get_scores(registry: SessionRegistry, request: ServiceRequest):
    """Betweenness scores, as ``[item, score]`` pairs.

    Vertex identifiers are arbitrary JSON scalars, so scores are served as
    pairs rather than an object (JSON object keys must be strings, which
    would silently collide ``1`` and ``"1"``).  ``?vertices=a,b`` filters
    (comma-separated, string-keyed graphs only); ``?edges=true`` returns
    edge scores as ``[[u, v], score]`` pairs.
    """
    managed = registry.get(request.path_params["name"])
    edges = _query_bool(request.query, "edges")
    wanted = request.query.get("vertices")
    if edges and wanted is not None:
        raise ValidationFailed(
            "the vertices filter only applies to vertex scores"
        )
    snapshot = await managed.read(managed.session.snapshot)
    if edges:
        pairs = [[list(edge), score] for edge, score in snapshot.edge_scores.items()]
    else:
        scores = snapshot.vertex_scores
        if wanted is not None:
            names = [v for v in wanted.split(",") if v != ""]
            missing = [v for v in names if v not in scores]
            if missing:
                raise ValidationFailed(
                    f"unknown vertices {missing!r}; note that the "
                    "comma-separated filter matches string vertex names "
                    "only — fetch all scores for integer-keyed graphs",
                    details={"unknown": missing},
                )
            pairs = [[v, scores[v]] for v in names]
        else:
            pairs = [[v, s] for v, s in scores.items()]
    return JSONResult(
        200,
        {
            "edges": edges,
            "batches_applied": snapshot.batches_applied,
            "scores": pairs,
        },
    )


async def open_events(registry: SessionRegistry, request: ServiceRequest):
    managed = registry.get(request.path_params["name"])
    stream = managed.bridge.open_stream()
    return EventStreamResult(
        stream=stream,
        bridge=managed.bridge,
        keepalive=registry.settings.keepalive_seconds,
    )


#: The service's routing table, resolved by :func:`match_route`.
ROUTES: List[Route] = [
    Route("GET", "/healthz", healthz, auth=False),
    Route("GET", "/sessions", list_sessions),
    Route("POST", "/sessions", create_session),
    Route("GET", "/sessions/{name}", get_session),
    Route("DELETE", "/sessions/{name}", delete_session),
    Route("POST", "/sessions/{name}/updates", post_updates),
    Route("GET", "/sessions/{name}/top_k", get_top_k),
    Route("GET", "/sessions/{name}/scores", get_scores),
    Route("GET", "/sessions/{name}/events", open_events),
]


def match_route(
    method: str, path: str
) -> Optional[Tuple[Route, Dict[str, str]]]:
    """Resolve ``(method, path)`` against :data:`ROUTES`.

    Returns the route and its captured path parameters, or ``None`` when no
    pattern matches (404).  Trailing slashes are tolerated.
    """
    segments = tuple(s for s in path.split("/") if s)
    for route in ROUTES:
        pattern = route.segments
        if route.method != method or len(pattern) != len(segments):
            continue
        params: Dict[str, str] = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                break
        else:
            return route, params
    return None
