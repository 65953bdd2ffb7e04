"""The service's HTTP/1.1 transport, on the standard library's asyncio.

A minimal server that routes every request through
:data:`~repro.service.routes.ROUTES` and answers with the JSON envelopes
and SSE frames the handlers produce.  It supports keep-alive,
Content-Length bodies and streaming responses.  It does *not* implement
chunked request bodies, TLS or HTTP/2: a ``Transfer-Encoding`` request is
refused with a 411, and TLS belongs to a reverse proxy in front.  Framing
it cannot use (a bad Content-Length, an over-long line, an undecodable
body) is answered with a typed 4xx from :mod:`repro.service.errors`,
never with a dropped connection.

Run it via ``repro serve`` or programmatically::

    service = ServiceServer(ServiceSettings(root="/var/lib/repro"))
    asyncio.run(service.serve("127.0.0.1", 8750))
"""

from __future__ import annotations

import asyncio
import json
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Set, Union
from urllib.parse import unquote_plus

from repro.service.errors import (
    HeaderTooLarge,
    InvalidJSONBody,
    LengthRequired,
    MalformedRequest,
    PayloadTooLarge,
    RouteNotFound,
    ServiceError,
)
from repro.service.events import sse_frame
from repro.service.registry import ServiceSettings, SessionRegistry
from repro.service.routes import (
    EventStreamResult,
    JSONResult,
    ServiceRequest,
    check_auth,
    match_route,
)

#: Largest accepted request body (16 MiB) — a graph of a few hundred
#: thousand edges; beyond that, load from a dataset server-side.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Largest accepted request line + header block; also the stream limit, so
#: one longer line fails ``readline`` with a ``ValueError``.
MAX_HEADER_BYTES = 64 * 1024


@dataclass(frozen=True)
class _Rejection:
    """A request refused before routing; ``_dispatch`` answers ``error``.

    ``keep_alive`` holds only when the whole request was consumed, so the
    next request starts at a known stream position.
    """

    error: ServiceError
    keep_alive: bool = False


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    )


class ServiceServer:
    """One registry + one asyncio socket server."""

    def __init__(
        self,
        settings: ServiceSettings,
        registry: Optional[SessionRegistry] = None,
    ) -> None:
        self.settings = settings
        self.registry = registry or SessionRegistry(settings)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task[None]"] = set()

    # -- lifecycle ------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1", port: int = 8750) -> int:
        """Restore sessions, bind the socket; returns the bound port."""
        await self.registry.startup()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_HEADER_BYTES
        )
        bound = self._server.sockets[0].getsockname()[1]
        return bound

    async def serve(self, host: str = "127.0.0.1", port: int = 8750) -> None:
        """Start and serve until cancelled; closes every session on the
        way out (with final checkpoints)."""
        await self.start(host, port)
        assert self._server is not None
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, close sessions (final checkpoints included)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the sessions ends every SSE stream gracefully; whatever
        # connections remain are idle keep-alives — cancel and drain them
        # so loop teardown never logs half-closed handler tasks.
        await self.registry.close_all()
        pending = [task for task in self._connections if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    # -- connection handling -------------------------------------------- #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # Only ``stop()`` cancels handler tasks; finish *uncancelled* so
            # asyncio's stream machinery never logs a half-closed handler.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Union[ServiceRequest, _Rejection, None]:
        """Parse one request; ``None`` once the peer has gone away."""
        try:
            request_line = await reader.readline()
        except ValueError:  # one line past the stream's limit
            return _header_too_large()
        if not request_line or not request_line.strip():
            return None
        parts = request_line.decode("latin-1").strip().split(" ", 2)
        if len(parts) != 3:
            return _Rejection(MalformedRequest("malformed request line"))
        method, target, _version = parts
        headers: Dict[str, str] = {}
        header_bytes = len(request_line)
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return _header_too_large()
            if not line:
                return None
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                return _header_too_large()
            if line in (b"\r\n", b"\n"):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            return _Rejection(LengthRequired())
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            return _Rejection(
                MalformedRequest(f"invalid Content-Length {declared[:32]!r}")
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            return _Rejection(
                PayloadTooLarge(f"request body exceeds {MAX_BODY_BYTES} bytes")
            )
        body: Any = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):  # bad JSON, UTF-8 or depth
                return _Rejection(InvalidJSONBody(), keep_alive=True)
        path, _, query_string = target.partition("?")
        return ServiceRequest(
            method=method.upper(),
            path=path,
            query=_parse_query(query_string),
            body=body,
            headers=headers,
        )

    async def _dispatch(
        self,
        request: Union[ServiceRequest, _Rejection],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        if isinstance(request, _Rejection):
            await self._write_error(writer, request.error, request.keep_alive)
            return request.keep_alive
        try:
            matched = match_route(request.method, request.path)
            if matched is None:
                raise RouteNotFound(request.method, request.path)
            route, params = matched
            request = replace(request, path_params=params)
            if route.auth:
                check_auth(self.registry, request)
            result = await route.handler(self.registry, request)
        except ServiceError as exc:
            await self._write_error(writer, exc)
            return True
        except Exception:  # noqa: BLE001 - last-resort 500, never a hang
            traceback.print_exc()
            await self._write_error(
                writer, ServiceError("unexpected server error")
            )
            return True
        if isinstance(result, EventStreamResult):
            await self._write_event_stream(writer, result)
            return False  # the SSE connection is single-use
        assert isinstance(result, JSONResult)
        await self._write_json(writer, result.status, result.payload)
        return True

    # -- response writers ------------------------------------------------ #
    @classmethod
    async def _write_error(
        cls,
        writer: asyncio.StreamWriter,
        error: ServiceError,
        keep_alive: bool = True,
    ) -> None:
        await cls._write_json(
            writer, error.status_code, error.payload(), keep_alive
        )

    @staticmethod
    async def _write_json(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool = True,
    ) -> None:
        body = _json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _write_event_stream(
        self, writer: asyncio.StreamWriter, result: EventStreamResult
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "content-type: text/event-stream\r\n"
            "cache-control: no-cache\r\n"
            "connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + b": connected\n\n")
            await writer.drain()
            async for frame in result.stream.frames(
                keepalive=result.keepalive
            ):
                writer.write(sse_frame(frame))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            result.release()


def _header_too_large() -> _Rejection:
    return _Rejection(
        HeaderTooLarge(
            f"request line or headers exceed {MAX_HEADER_BYTES} bytes"
        )
    )


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _parse_query(query_string: str) -> Dict[str, str]:
    query: Dict[str, str] = {}
    if not query_string:
        return query
    for part in query_string.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        query[unquote_plus(key)] = unquote_plus(value)
    return query
