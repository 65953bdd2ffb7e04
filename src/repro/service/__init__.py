"""Betweenness-as-a-service: the async HTTP/SSE front end.

The serving subsystem ROADMAP item 2 asked for: multi-tenant, named,
checkpoint-backed :class:`~repro.api.session.BetweennessSession`\\ s behind
an HTTP API with live server-sent-event streams of centrality changes.

Layers (standard library only):

* :mod:`repro.service.registry` — the transport-neutral core: session
  directories under a service root, per-session single-writer workers,
  restart recovery;
* :mod:`repro.service.routes` — handlers + the one routing table;
* :mod:`repro.service.events` — session events → bounded per-client SSE
  queues (drop-oldest + ``lagged`` markers);
* :mod:`repro.service.server` — the asyncio HTTP/1.1 transport;
* :mod:`repro.service.client` — asyncio client (used by the test suite
  and the ``service-mixed`` workload of ``benchmarks/suite``).

Start serving with ``repro serve --root /var/lib/repro``.
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.errors import (
    AuthenticationFailed,
    HeaderTooLarge,
    InvalidJSONBody,
    LengthRequired,
    MalformedRequest,
    PayloadTooLarge,
    RouteNotFound,
    ServiceError,
    SessionClosed,
    SessionExists,
    SessionNotFound,
    SessionUnavailable,
    UpdateRejected,
    ValidationFailed,
)
from repro.service.events import ClientStream, EventBridge, encode_event
from repro.service.registry import (
    ManagedSession,
    ServiceSettings,
    SessionRegistry,
)
from repro.service.server import ServiceServer

__all__ = [
    "AuthenticationFailed",
    "ClientStream",
    "EventBridge",
    "HeaderTooLarge",
    "InvalidJSONBody",
    "LengthRequired",
    "MalformedRequest",
    "ManagedSession",
    "PayloadTooLarge",
    "RouteNotFound",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceServer",
    "ServiceSettings",
    "SessionClosed",
    "SessionExists",
    "SessionNotFound",
    "SessionRegistry",
    "SessionUnavailable",
    "UpdateRejected",
    "ValidationFailed",
    "encode_event",
]
