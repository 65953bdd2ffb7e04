"""Dependency-free asyncio client for the betweenness service.

A deliberately small HTTP/1.1 + SSE client over raw asyncio streams, so
tests, the ``service-mixed`` workload of ``benchmarks/suite`` and
bare-bones deployments need neither ``httpx`` nor ``requests``.  One
:class:`ServiceClient` holds one keep-alive connection and must be used
sequentially (open several clients for concurrency — that is exactly what
the workload does); SSE subscriptions each open their own dedicated
connection.

Example::

    async with ServiceClient("127.0.0.1", 8750, api_key="s3cret") as client:
        await client.create_session(
            "demo", edges=[[0, 1], [1, 2]], config={"backend": "arrays"}
        )
        await client.post_updates("demo", [("add", 0, 2)])
        status, payload = await client.get("/sessions/demo/top_k", {"k": 3})
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Iterable, List, Optional, Tuple
from urllib.parse import quote

from repro.exceptions import ReproError


class ServiceClientError(ReproError):
    """A non-2xx response, surfaced with the server's structured error."""

    def __init__(self, status: int, payload: Any):
        error = (payload or {}).get("error", {}) if isinstance(payload, dict) else {}
        message = error.get("message", f"HTTP {status}")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.code = error.get("code")


class ServiceClient:
    """One sequential keep-alive connection to the service."""

    def __init__(
        self, host: str, port: int, api_key: Optional[str] = None
    ) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # -- lifecycle ------------------------------------------------------ #
    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def _connection(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        assert self._reader is not None and self._writer is not None
        return self._reader, self._writer

    # -- core request --------------------------------------------------- #
    async def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any]:
        """One request/response exchange; returns ``(status, payload)``."""
        target = path + _encode_query(query)
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        headers = [
            f"{method} {target} HTTP/1.1",
            f"host: {self.host}:{self.port}",
            "connection: keep-alive",
        ]
        if payload:
            headers.append("content-type: application/json")
        headers.append(f"content-length: {len(payload)}")
        if self.api_key is not None:
            headers.append(f"x-api-key: {self.api_key}")
        wire = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload
        for attempt in (0, 1):
            reader, writer = await self._connection()
            try:
                writer.write(wire)
                await writer.drain()
                return await self._read_response(reader)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
            ):
                # A keep-alive peer may have dropped the idle connection;
                # retry exactly once on a fresh one.
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any]:
        status_line = await reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(status_line.split(b" ", 2)[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""
        payload = json.loads(raw) if raw else None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    # -- convenience verbs ---------------------------------------------- #
    async def get(
        self, path: str, query: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        return await self.request("GET", path, query=query)

    async def expect(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: Optional[Dict[str, Any]] = None,
        status: int = 200,
    ) -> Any:
        """Like :meth:`request` but raises unless ``status`` comes back."""
        got, payload = await self.request(method, path, body=body, query=query)
        if got != status:
            raise ServiceClientError(got, payload)
        return payload

    # -- typed helpers --------------------------------------------------- #
    async def create_session(
        self,
        name: str,
        edges: Iterable[Iterable[Any]] = (),
        vertices: Iterable[Any] = (),
        directed: bool = False,
        config: Optional[Dict[str, Any]] = None,
        checkpoint_every: Optional[int] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "name": name,
            "graph": {
                "edges": [list(edge) for edge in edges],
                "vertices": list(vertices),
                "directed": directed,
            },
            "config": config or {},
        }
        if checkpoint_every is not None:
            body["checkpoint_every"] = checkpoint_every
        return await self.expect("POST", "/sessions", body, status=201)

    async def post_updates(
        self, name: str, updates: Iterable[Tuple[str, Any, Any]]
    ) -> Dict[str, Any]:
        body = {"updates": [list(u) for u in updates]}
        return await self.expect(
            "POST", f"/sessions/{quote(name)}/updates", body
        )

    async def top_k(
        self, name: str, k: int = 10, edges: bool = False
    ) -> Dict[str, Any]:
        return await self.expect(
            "GET",
            f"/sessions/{quote(name)}/top_k",
            query={"k": k, "edges": str(edges).lower()},
        )

    async def scores(self, name: str, edges: bool = False) -> Dict[str, Any]:
        return await self.expect(
            "GET",
            f"/sessions/{quote(name)}/scores",
            query={"edges": str(edges).lower()},
        )

    async def delete_session(
        self, name: str, purge: bool = False
    ) -> Dict[str, Any]:
        return await self.expect(
            "DELETE",
            f"/sessions/{quote(name)}",
            query={"purge": str(purge).lower()},
        )

    # -- SSE ------------------------------------------------------------- #
    async def events(
        self, name: str, max_frames: Optional[int] = None
    ) -> AsyncIterator[Dict[str, Any]]:
        """Subscribe to a session's SSE stream (dedicated connection).

        Yields decoded frame dicts; keepalive comments are skipped.  The
        generator ends when the server closes the stream or after
        ``max_frames`` frames.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            headers = [
                f"GET /sessions/{quote(name)}/events HTTP/1.1",
                f"host: {self.host}:{self.port}",
                "accept: text/event-stream",
            ]
            if self.api_key is not None:
                headers.append(f"x-api-key: {self.api_key}")
            writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1"))
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split(b" ", 2)[1])
            response_headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                response_headers[key.strip().lower()] = value.strip()
            if status != 200:
                length = int(response_headers.get("content-length", "0") or "0")
                raw = await reader.readexactly(length) if length else b""
                raise ServiceClientError(
                    status, json.loads(raw) if raw else None
                )
            delivered = 0
            data_lines: List[str] = []
            while max_frames is None or delivered < max_frames:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\r\n")
                if text.startswith("data:"):
                    data_lines.append(text[5:].lstrip())
                elif text == "" and data_lines:
                    yield json.loads("\n".join(data_lines))
                    data_lines = []
                    delivered += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def _encode_query(query: Optional[Dict[str, Any]]) -> str:
    if not query:
        return ""
    parts = [
        f"{quote(str(key))}={quote(str(value))}"
        for key, value in query.items()
        if value is not None
    ]
    return "?" + "&".join(parts) if parts else ""
