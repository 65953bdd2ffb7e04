"""Typed service errors mapping onto structured HTTP responses.

Every error the service raises deliberately derives from
:class:`ServiceError`, which carries an HTTP status code and a stable
machine-readable ``code`` slug.  The asyncio transport
(:mod:`repro.service.server`) translates a raised ``ServiceError`` into
one JSON envelope::

    {"error": {"code": "session_not_found", "message": "..."}}

so clients never see a stack trace for a bad request — a 4xx is part of
the API surface, not an accident.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.exceptions import ReproError


class ServiceError(ReproError):
    """Base class of every deliberate service-level failure."""

    status_code = 500
    code = "internal_error"

    def __init__(self, message: str, *, details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.message = message
        self.details = dict(details) if details else None

    def payload(self) -> Dict[str, Any]:
        """The JSON body served for this error."""
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            error["details"] = self.details
        return {"error": error}


class AuthenticationFailed(ServiceError):
    """The request is missing or carries a wrong API key."""

    status_code = 401
    code = "authentication_failed"


class InvalidJSONBody(ServiceError):
    """The request body could not be parsed as JSON at all."""

    status_code = 400
    code = "invalid_json"

    def __init__(self) -> None:
        super().__init__("request body is not valid JSON")


class MalformedRequest(ServiceError):
    """The request framing is unusable (e.g. a non-numeric Content-Length)."""

    status_code = 400
    code = "bad_request"


class LengthRequired(ServiceError):
    """The request body is not delimited by a Content-Length header."""

    status_code = 411
    code = "length_required"

    def __init__(self) -> None:
        super().__init__(
            "request bodies must carry a Content-Length; "
            "Transfer-Encoding is not supported"
        )


class PayloadTooLarge(ServiceError):
    """The declared request body exceeds the server's limit."""

    status_code = 413
    code = "payload_too_large"


class HeaderTooLarge(ServiceError):
    """The request line or header block exceeds the server's limit."""

    status_code = 431
    code = "header_too_large"


class ValidationFailed(ServiceError):
    """The request body or query string does not describe a valid operation.

    Covers both malformed payloads (missing keys, wrong types) and payloads
    that fail the library's own configuration validation — the underlying
    :class:`~repro.exceptions.ConfigurationError` message is surfaced
    verbatim in ``message`` so the client learns *which* knob was wrong.
    """

    status_code = 422
    code = "validation_failed"


class RouteNotFound(ServiceError):
    """No route serves the request's method and path."""

    status_code = 404
    code = "not_found"

    def __init__(self, method: str, path: str):
        super().__init__(f"no route for {method} {path}")


class SessionNotFound(ServiceError):
    """No live session is registered under the requested name."""

    status_code = 404
    code = "session_not_found"

    def __init__(self, name: str):
        super().__init__(f"no session named {name!r}", details={"name": name})
        self.name = name


class SessionExists(ServiceError):
    """A session with the requested name already exists."""

    status_code = 409
    code = "session_exists"

    def __init__(self, name: str):
        super().__init__(
            f"a session named {name!r} already exists", details={"name": name}
        )
        self.name = name


class SessionClosed(ServiceError):
    """The session exists on disk but was closed; it no longer serves."""

    status_code = 409
    code = "session_closed"

    def __init__(self, name: str):
        super().__init__(
            f"session {name!r} was closed; delete it with ?purge=true and "
            "recreate it to serve again",
            details={"name": name},
        )
        self.name = name


class SessionUnavailable(ServiceError):
    """The session exists on disk but could not be restored at startup."""

    status_code = 409
    code = "session_unavailable"

    def __init__(self, name: str, reason: str):
        super().__init__(
            f"session {name!r} failed to restore: {reason}",
            details={"name": name, "reason": reason},
        )
        self.name = name


class UpdateRejected(ServiceError):
    """An edge update in the batch cannot be applied to the current graph.

    409 rather than 422: the request was well-formed, it just conflicts
    with the session's current graph state (duplicate edge, unknown edge on
    removal, self loop).  The batch is applied atomically — a rejected
    batch leaves the scores untouched.
    """

    status_code = 409
    code = "update_rejected"
