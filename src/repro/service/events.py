"""Bridge from session events to per-client server-sent-event streams.

A :class:`~repro.api.session.BetweennessSession` publishes typed events
synchronously, on whatever thread applied the batch.  An HTTP client
consumes them asynchronously, over a connection that may be slow or gone.
This module is the adapter between the two worlds:

* :class:`EventBridge` is a session subscriber.  It encodes each event
  into a JSON-able *frame* and fans it out to every open
  :class:`ClientStream`.  It never raises into the session and never
  blocks the writer.
* :class:`ClientStream` is a bounded, thread-safe frame queue with
  **drop-oldest** overflow: when a client cannot keep up, the oldest
  undelivered frames are discarded and the client receives a ``lagged``
  frame telling it how many it missed — one slow consumer can never stall
  the update path or grow memory without bound.  Clients that need every
  frame can re-read authoritative state (``/scores``) after a ``lagged``
  marker.

Frame schema (all frames carry ``type``; events carry ``sequence``)::

    {"type": "bootstrap_completed", "sequence": 0, "num_vertices": ..., ...}
    {"type": "update_applied", "sequence": 2, "batch_index": 0,
     "update": {"kind": "add", "u": ..., "v": ...}}
    {"type": "batch_applied", "sequence": 3, "batch_index": 1,
     "updates": [{"kind": "add", "u": ..., "v": ...}, ...],
     "num_updates": 2}
    {"type": "checkpoint_written", "sequence": 4, "path": "..."}
    {"type": "worker_failed", "sequence": 9, "shard": 1, "error": "...",
     "batch_cursor": 7}
    {"type": "shard_recovered", "sequence": 10, "shard": 1,
     "replayed_batches": 3, "seconds": 0.12}
    {"type": "session_closed", "sequence": 11}
    {"type": "lagged", "dropped": 17}
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from typing import Any, AsyncIterator, Dict, List, Optional

from repro.api.events import (
    BatchApplied,
    BootstrapCompleted,
    CheckpointWritten,
    SessionClosed,
    SessionEvent,
    ShardRecovered,
    UpdateApplied,
    WorkerFailed,
)

#: Default per-client queue bound (frames, not bytes).
DEFAULT_QUEUE_SIZE = 256


def _encode_update(update) -> Dict[str, Any]:
    return {"kind": update.kind.value, "u": update.u, "v": update.v}


def encode_event(event: SessionEvent) -> Optional[Dict[str, Any]]:
    """The JSON-able frame for ``event``, or ``None`` for internal events.

    Engine result objects are deliberately *not* serialized wholesale —
    they hold store handles and per-source internals.  The frame carries
    what a network consumer can act on: which updates landed, where the
    checkpoint went, which shard failed or recovered.
    """
    if isinstance(event, BatchApplied):
        return {
            "type": "batch_applied",
            "sequence": event.sequence,
            "batch_index": event.batch_index,
            "num_updates": len(event.updates),
            "updates": [_encode_update(u) for u in event.updates],
        }
    if isinstance(event, UpdateApplied):
        return {
            "type": "update_applied",
            "sequence": event.sequence,
            "batch_index": event.batch_index,
            "update": _encode_update(event.update),
        }
    if isinstance(event, CheckpointWritten):
        return {
            "type": "checkpoint_written",
            "sequence": event.sequence,
            "path": event.path,
        }
    if isinstance(event, WorkerFailed):
        return {
            "type": "worker_failed",
            "sequence": event.sequence,
            "shard": event.shard,
            "error": event.error,
            "batch_cursor": event.batch_cursor,
        }
    if isinstance(event, ShardRecovered):
        return {
            "type": "shard_recovered",
            "sequence": event.sequence,
            "shard": event.shard,
            "replayed_batches": event.replayed_batches,
            "seconds": event.seconds,
        }
    if isinstance(event, BootstrapCompleted):
        return {
            "type": "bootstrap_completed",
            "sequence": event.sequence,
            "num_vertices": event.num_vertices,
            "num_edges": event.num_edges,
            "num_sources": event.num_sources,
        }
    if isinstance(event, SessionClosed):
        return {"type": "session_closed", "sequence": event.sequence}
    return None


class ClientStream:
    """One client's bounded frame queue; producer on any thread, consumer
    on the event loop.

    ``push`` is wait-free for the producer: with the queue full, the
    oldest frame is dropped and a lag counter incremented.  The consumer
    drains in FIFO order and sees one ``{"type": "lagged", "dropped": n}``
    frame (ahead of the frames that survived) for every overflow episode.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, maxsize: int = DEFAULT_QUEUE_SIZE
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._loop = loop
        self._maxsize = maxsize
        self._frames: deque = deque()
        self._lock = threading.Lock()
        self._dropped = 0
        self._closed = False
        self._wakeup = asyncio.Event()

    def push(self, frame: Dict[str, Any]) -> None:
        """Enqueue ``frame``; never blocks, never raises to the producer."""
        with self._lock:
            if self._closed:
                return
            if len(self._frames) >= self._maxsize:
                self._frames.popleft()
                self._dropped += 1
            self._frames.append(frame)
        self._loop.call_soon_threadsafe(self._wakeup.set)

    def close(self) -> None:
        """Mark the stream finished; the consumer drains what is queued."""
        with self._lock:
            self._closed = True
        try:
            self._loop.call_soon_threadsafe(self._wakeup.set)
        except RuntimeError:  # loop already gone at interpreter teardown
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def _drain(self) -> tuple:
        with self._lock:
            frames = list(self._frames)
            self._frames.clear()
            dropped, self._dropped = self._dropped, 0
            return frames, dropped, self._closed

    async def frames(
        self, keepalive: Optional[float] = None
    ) -> AsyncIterator[Optional[Dict[str, Any]]]:
        """Yield frames in order until the stream closes.

        When ``keepalive`` is set and no frame arrives within that many
        seconds, ``None`` is yielded so the transport can emit an SSE
        comment and detect dead connections.
        """
        while True:
            if keepalive is None:
                await self._wakeup.wait()
            else:
                try:
                    await asyncio.wait_for(self._wakeup.wait(), keepalive)
                except asyncio.TimeoutError:
                    yield None
                    continue
            self._wakeup.clear()
            frames, dropped, closed = self._drain()
            if dropped:
                yield {"type": "lagged", "dropped": dropped}
            for frame in frames:
                yield frame
            if closed:
                return


class EventBridge:
    """Session subscriber that fans frames out to every open client stream.

    One bridge serves one session; client streams are opened per SSE
    connection.  The bridge is deliberately paranoid: encoding or delivery
    problems for one client are swallowed (that client just misses the
    frame) — the session's update path must never pay for a broken
    consumer.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        queue_size: int = DEFAULT_QUEUE_SIZE,
    ) -> None:
        self._loop = loop
        self._queue_size = queue_size
        self._clients: List[ClientStream] = []
        self._lock = threading.Lock()
        self._events_seen = 0

    # -- session subscriber protocol ---------------------------------- #
    def on_event(self, event: SessionEvent) -> None:
        frame = encode_event(event)
        if frame is None:
            return
        self._events_seen += 1
        with self._lock:
            clients = list(self._clients)
        for client in clients:
            try:
                client.push(frame)
            except Exception:  # noqa: BLE001 - a client must never hurt the writer
                pass

    # -- client management -------------------------------------------- #
    def open_stream(self) -> ClientStream:
        """Register and return a fresh client stream."""
        stream = ClientStream(self._loop, self._queue_size)
        with self._lock:
            self._clients.append(stream)
        return stream

    def discard(self, stream: ClientStream) -> None:
        """Unregister ``stream`` (idempotent) and close it."""
        with self._lock:
            try:
                self._clients.remove(stream)
            except ValueError:
                pass
        stream.close()

    def close(self) -> None:
        """Close every client stream (the session is going away)."""
        with self._lock:
            clients, self._clients = list(self._clients), []
        for stream in clients:
            stream.close()

    @property
    def num_clients(self) -> int:
        with self._lock:
            return len(self._clients)

    @property
    def events_seen(self) -> int:
        return self._events_seen


def sse_frame(frame: Optional[Dict[str, Any]]) -> bytes:
    """Wire encoding of one frame (or a keepalive comment for ``None``)."""
    if frame is None:
        return b": keepalive\n\n"
    data = json.dumps(frame, separators=(",", ":"), default=str)
    kind = frame.get("type", "message")
    lines = [f"event: {kind}"]
    sequence = frame.get("sequence")
    if sequence is not None:
        lines.append(f"id: {sequence}")
    lines.append(f"data: {data}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")
